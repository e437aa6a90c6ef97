package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

const (
	daemonPool = 240 // seeded progen programs the requests draw from
	// A repeated request copies one of the last daemonRepeatWindow
	// requests, so it is still in ggcd's cache (4096 entries by default).
	daemonRepeatWindow = 256
)

// query is one request's configuration.
type query struct {
	risc, peep, json bool
}

func (q query) target() string {
	if q.risc {
		return "risc"
	}
	return "vax"
}

func (q query) String() string {
	s := "target=" + q.target()
	if q.peep {
		s += "&peephole=1"
	}
	if q.json {
		s += "&format=json"
	}
	return s
}

// drawQuery draws from the request mix: peephole on about half, risc on
// about a quarter, format=json on about a tenth.
func drawQuery(r *splitmix) query {
	return query{risc: r.chance(4), peep: r.chance(2), json: r.chance(10)}
}

// reqDef is one request of the stream: a pool program under a query. A
// fresh request's source is the program behind a comment naming the
// request (origin), so its bytes are new to the cache while its code is the
// program's; a repeat copies an earlier request's source and query.
type reqDef struct {
	base   int32
	origin int32
	q      query
}

func (d reqDef) source(pool []*unit) string {
	return "// request " + strconv.Itoa(int(d.origin)) + "\n" + pool[d.base].src
}

// requestStream draws n requests from the seed: about a quarter repeat
// one of the recent requests, the rest are fresh.
func requestStream(seed int64, n int) []reqDef {
	r := newRand(seed, 5)
	defs := make([]reqDef, n)
	for i := range defs {
		if i > 0 && r.chance(4) {
			defs[i] = defs[i-1-r.intn(min(i, daemonRepeatWindow))]
			continue
		}
		defs[i] = reqDef{base: int32(r.intn(daemonPool)), origin: int32(i), q: drawQuery(r)}
	}
	return defs
}

// daemon is one running ggcd.
type daemon struct {
	cmd *exec.Cmd
	url string
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return strconv.Itoa(ln.Addr().(*net.TCPAddr).Port), nil
}

// startDaemon launches ggcd on a free loopback port and returns once
// /healthz answers 200, with the time that took.
func (b *bench) startDaemon(client *http.Client) (*daemon, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		cmd := exec.Command(filepath.Join(b.bin, "ggcd"), "-addr", "127.0.0.1:"+port)
		start := time.Now()
		if err := b.start(cmd); err != nil {
			return nil, 0, err
		}
		d := &daemon{cmd: cmd, url: "http://127.0.0.1:" + port}
		for time.Since(start) < 20*time.Second {
			resp, err := client.Get(d.url + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(start), nil
				}
			}
			lastErr = err
			time.Sleep(time.Millisecond)
		}
		b.stop(cmd)
	}
	return nil, 0, fmt.Errorf("ggcd did not become healthy: %v", lastErr)
}

// response is one completed request.
type response struct {
	idx     int32
	status  int
	lat     time.Duration
	server  time.Duration
	hit     bool
	done    time.Duration // completion time since the loop began
	hash    uint64        // text responses
	body    []byte        // json responses
	errText string
}

func (d *daemon) post(client *http.Client, src string, q query, idx int32) response {
	res := response{idx: idx}
	req, err := http.NewRequest("POST", d.url+"/compile?"+q.String(), strings.NewReader(src))
	if err != nil {
		res.errText = err.Error()
		return res
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		res.errText = err.Error()
		return res
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.lat = time.Since(start)
	if err != nil {
		res.errText = err.Error()
		return res
	}
	res.status = resp.StatusCode
	ns, _ := strconv.ParseInt(resp.Header.Get("X-Ggcd-Compile-Ns"), 10, 64)
	res.server = time.Duration(ns)
	res.hit = resp.Header.Get("X-Ggcd-Cache") == "hit"
	if q.json {
		res.body = body
	} else {
		res.hash = hashBytes(body)
	}
	return res
}

func hashBytes(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// verify compares a response with the reference of its job.
func (b *bench) verifyResponse(res response, j job, q query, what string) {
	b.attempted++
	if res.errText != "" || res.status != http.StatusOK {
		b.fail("%s %s: status %d %s", what, j, res.status, res.errText)
		return
	}
	r := b.chk.ref(j)
	if r.err != nil {
		b.fail("%v", r.err)
		return
	}
	if q.json {
		var body struct {
			Asm string `json:"asm"`
		}
		if err := json.Unmarshal(res.body, &body); err != nil || body.Asm != r.asm {
			b.fail("%s %s: json asm differs from the reference (err %v)", what, j, err)
		}
		return
	}
	if res.hash != hashBytes([]byte(r.asm)) {
		b.fail("%s %s: response differs from the reference", what, j)
	}
}

// scrape reads ggcd's Prometheus counters and phase totals.
func (d *daemon) scrape(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// memstats reads the Go runtime's cumulative allocation and GC counts
// from ggcd's expvar endpoint.
func (d *daemon) memstats(client *http.Client) (totalAlloc, numGC uint64, err error) {
	resp, err := client.Get(d.url + "/debug/vars")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var v struct {
		Memstats struct {
			TotalAlloc uint64
			NumGC      uint64
		} `json:"memstats"`
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v.Memstats.TotalAlloc, v.Memstats.NumGC, err
}

// runDaemon is the daemon-mix workload: a ggcd subprocess on loopback
// driven by a closed loop of one client. One client leaves a core free
// beside ggcd's compile; with two, ggcd and the clients filled both cores of
// the development machine and every timing moved about twice as far with the
// host's load.
func runDaemon(b *bench) error {
	pool := progenUnits(b.seed, 4, daemonPool)
	fixed := corpusUnits()
	jobOf := func(u *unit, q query) job { return job{u: u, target: q.target(), peep: q.peep} }
	var poolJobs []job
	for _, peep := range []bool{false, true} {
		poolJobs = append(poolJobs, jobsFor(pool, peep)...)
	}
	for _, j := range poolJobs {
		b.chk.ref(j)
	}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	defer client.CloseIdleConnections()

	// Set-up: exec until the first 200 from /healthz. Each set-up also
	// times the first request per target: the cold paths (the RISC tables
	// and the table hash the cache keys on) that the daemon pays lazily.
	var setups, firstVAX, firstRISC []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			b.stop(d.cmd)
		}
		var setup time.Duration
		var err error
		d, setup, err = b.startDaemon(client)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		for _, q := range []query{{}, {risc: true}} {
			src := fmt.Sprintf("// first request %d\n%s", i, pool[0].src)
			res := d.post(client, src, q, -1)
			b.verifyResponse(res, jobOf(pool[0], q), q, "first request")
			if q.risc {
				firstRISC = append(firstRISC, ms(res.lat))
			} else {
				firstVAX = append(firstVAX, ms(res.lat))
			}
		}
	}
	defer b.stop(d.cmd)
	b.setE2E("setup_s", median(setups), "s")

	measure := b.seconds
	if b.trace {
		measure /= 2
	}
	defs := requestStream(b.seed, int(measure.Seconds()*10000)+1000)
	before, err := d.scrape(client)
	if err != nil {
		return err
	}
	alloc0, gc0, err := d.memstats(client)
	if err != nil {
		return err
	}

	var all []response
	loopStart := time.Now()
	deadline := loopStart.Add(measure)
	for i := 0; i < len(defs) && time.Now().Before(deadline); i++ {
		def := defs[i]
		res := d.post(client, def.source(pool), def.q, int32(i))
		res.done = time.Since(loopStart)
		all = append(all, res)
	}
	elapsed := time.Since(loopStart)
	after, err := d.scrape(client)
	if err != nil {
		return err
	}
	alloc1, gc1, err := d.memstats(client)
	if err != nil {
		return err
	}

	// Check every response, then compute the rates over whole seconds.
	if len(all) == len(defs) {
		b.note("request stream exhausted after %d requests", len(defs))
	}
	var lats, servers, waits, missServer []float64
	windows := int(elapsed / time.Second)
	if windows < 1 {
		windows = 1
	}
	reqs := make([]float64, windows)
	lines := make([]float64, windows)
	hits := 0
	for _, res := range all {
		def := defs[res.idx]
		b.verifyResponse(res, jobOf(pool[def.base], def.q), def.q, "request")
		lats = append(lats, ms(res.lat))
		servers = append(servers, ms(res.server))
		waits = append(waits, ms(res.lat-res.server))
		if res.hit {
			hits++
		} else {
			missServer = append(missServer, ms(res.server))
		}
		if w := int(res.done / time.Second); w < windows {
			reqs[w]++
			lines[w] += float64(pool[def.base].lines + 1)
		}
	}

	// Code size and simulated steps over the fixed corpus, all four
	// configurations, as ggcd returns them (outside the timed window).
	var fixedJobs []job
	for _, u := range fixed {
		for _, q := range []query{{}, {peep: true}, {risc: true}, {risc: true, peep: true}} {
			j := jobOf(u, q)
			fixedJobs = append(fixedJobs, j)
			b.verifyResponse(d.post(client, u.src, q, -1), j, q, "fixed request")
		}
	}
	b.stop(d.cmd)
	rss := peakRSS(d.cmd.ProcessState)

	steps := b.chk.executeAll(append(poolJobs, fixedJobs...))
	asmLines, simSteps := b.chk.codeSize(fixedJobs)
	// The tail is p90: between runs on a shared host, p99 spread two to
	// five times as far as the median, p90 half as far as p99 or less.
	p50, p90, p99 := quantile(lats, 0.5), quantile(lats, 0.9), quantile(lats, 0.99)
	b.setE2E("latency_ms_p50", p50, "ms")
	b.setE2E("latency_ms_tail", p90, "ms")
	b.setE2E("lines_per_s", median(lines), "lines/s")
	b.setE2E("peak_rss_mb", rss, "MB")
	b.setE2E("asm_lines_total", float64(asmLines), "lines")
	b.setE2E("sim_steps_total", float64(simSteps), "count")
	b.note("closed loop, 1 client, %d requests in %.2f s; pool of %d programs; %.1f%% cache hits",
		len(all), elapsed.Seconds(), daemonPool, 100*float64(hits)/float64(len(all)))
	b.note("daemon_req_per_s %.1f req/s (median of %d one-second windows)", median(reqs), windows)
	b.note("daemon_latency_ms_p50 %.4f ms, daemon_latency_ms_p99 %.4f ms (%d samples, %d beyond p99; first requests excluded)",
		p50, p99, len(lats), len(lats)/100)
	b.note("daemon_latency_ms_p90 %.4f ms (%d beyond p90)", p90, len(lats)/10)
	b.note("daemon_peak_rss_mb %.1f MB", rss)

	if !b.trace {
		return nil
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	misses := delta("ggcd_cache_misses_total")
	requests := delta("ggcd_requests_total")
	phases := map[string]int64{}
	for name := range after {
		if p, ok := strings.CutPrefix(name, `ggcd_phase_ns_total{path="`); ok {
			phases[lastElem(strings.TrimSuffix(p, `"}`))] += int64(delta(name))
		}
	}
	b.setPhases(phases, misses)
	b.reportRuntime(alloc1-alloc0, gc1-gc0, requests)
	b.note("compcache.hit_ratio %.4f (%g hits of %g requests), compcache.coalesced %g",
		delta("ggcd_cache_hits_total")/requests, delta("ggcd_cache_hits_total"), requests,
		delta("ggcd_cache_inflight_coalesced_total"))
	b.note("ggcd.server_ms_p50 %.4f ms, ggcd.server_ms_p99 %.4f ms, ggcd.wait_ms_p50 %.4f ms",
		quantile(servers, 0.5), quantile(servers, 0.99), quantile(waits, 0.5))
	b.note("ggcd.first_request_ms.vax %.3f ms, ggcd.first_request_ms.risc %.3f ms (medians of %d starts)",
		median(firstVAX), median(firstRISC), setupRepeats)

	// The ledger replays the request mix in process: each pool program
	// under one query drawn from the mix.
	r := newRand(b.seed, 6)
	var mix []job
	for _, u := range pool {
		mix = append(mix, jobOf(u, drawQuery(r)))
	}
	if err := b.traceLayers(mix, steps, nil, b.seconds/2); err != nil {
		return err
	}
	b.note("ggcd server time per cache miss %.4f ms (mean) against %.4f ms per job of layers in process: %.4f ms of observer, handler and scheduling",
		mean(missServer), b.ledgerJobMs, mean(missServer)-b.ledgerJobMs)
	return nil
}

# == return42 ==
.globl _main
_main:
	li	r0,$42
	ret
# == arith ==
.globl _main
_main:
	li	r0,$36
	li	r1,$6
	divl	r0,r0,r1
	li	r1,$4
	reml	r0,r0,r1
	li	r1,$35
	subl	r1,r1,r0
	mv	r0,r1
	ret
# == appendix ==
.data
.comm _a,4
.text
.globl _main
_main:
	enter	$1
	li	r0,$100
	stb	r0,-1(fp)
	ldb	r0,-1(fp)
	cvtbl	r0,r0
	addi	r0,r0,$27
	stl	r0,_a
	ldl	r0,_a
	ret
# == globals ==
.data
.comm _a,4
.align 2
_b:
	.long 10
.text
.globl _main
_main:
	li	r0,$27
	stl	r0,_a
	ldl	r0,_a
	ldl	r1,_b
	addl	r0,r0,r1
	ret
# == locals ==
.globl _main
_main:
	enter	$8
	li	r0,$5
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$3
	mull	r1,r1,r0
	stl	r1,-8(fp)
	ldl	r0,-8(fp)
	ldl	r1,-4(fp)
	subl	r0,r0,r1
	ret
# == chars ==
.data
.comm _c,1
.comm _s,2
.text
.globl _main
_main:
	li	r0,$300
	stb	r0,_c
	li	r0,$70000
	stw	r0,_s
	ldb	r0,_c
	cvtbl	r0,r0
	ldw	r1,_s
	cvtwl	r1,r1
	addl	r0,r0,r1
	ret
# == ifelse ==
.globl _classify
_classify:
	ldl	r0,4(ap)
	li	r1,$0
	bgel	r0,r1,L1
	li	r0,$-1
	ret
	jmp	L2
L1:
	ldl	r0,4(ap)
	li	r1,$0
	bnel	r0,r1,L3
	li	r0,$0
	ret
	jmp	L4
L3:
	li	r0,$1
	ret
L4:
L2:
	ret
.globl _main
_main:
	ldl	r0,4(ap)
	push	r0
	call	$1,_classify
	ret
# == whileloop ==
.globl _main
_main:
	enter	$8
	li	r0,$1
	stl	r0,-4(fp)
	li	r0,$0
	stl	r0,-8(fp)
L1:
	ldl	r0,-4(fp)
	li	r1,$10
	bgtl	r0,r1,L2
	ldl	r0,-8(fp)
	ldl	r1,-4(fp)
	addl	r0,r0,r1
	stl	r0,-8(fp)
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L1
L2:
	ldl	r0,-8(fp)
	ret
# == forloop ==
.globl _main
_main:
	enter	$8
	li	r0,$0
	stl	r0,-8(fp)
	li	r0,$0
	stl	r0,-4(fp)
L1:
	ldl	r0,-4(fp)
	li	r1,$100
	bgel	r0,r1,L2
	ldl	r0,-4(fp)
	li	r1,$2
	reml	r0,r0,r1
	li	r1,$0
	beql	r0,r1,L4
	jmp	L3
L4:
	ldl	r0,-4(fp)
	li	r1,$10
	blel	r0,r1,L5
	jmp	L2
L5:
	ldl	r0,-8(fp)
	ldl	r1,-4(fp)
	addl	r0,r0,r1
	stl	r0,-8(fp)
L3:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L1
L2:
	ldl	r0,-8(fp)
	ret
# == dowhile ==
.globl _main
_main:
	enter	$8
	li	r0,$0
	stl	r0,-4(fp)
	li	r0,$0
	stl	r0,-8(fp)
L1:
	ldl	r0,-8(fp)
	addi	r0,r0,$1
	stl	r0,-8(fp)
	ldl	r0,-4(fp)
	addi	r0,r0,$3
	stl	r0,-4(fp)
L3:
	ldl	r0,-4(fp)
	li	r1,$10
	bltl	r0,r1,L1
L2:
	ldl	r0,-8(fp)
	ret
# == shortcircuit ==
.data
.comm _g,4
.text
.globl _bump
_bump:
	ldl	r0,_g
	addi	r0,r0,$1
	stl	r0,_g
	li	r0,$1
	ret
.globl _main
_main:
	enter	$12
	li	r0,$0
	stl	r0,_g
	li	r0,$0
	li	r1,$0
	beqb	r0,r1,L2
	call	$0,_bump
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$0
	beql	r0,r1,L2
	ldl	r0,_g
	addi	r0,r0,$100
	stl	r0,_g
L2:
	li	r0,$1
	li	r1,$0
	bneb	r0,r1,L5
	call	$0,_bump
	stl	r0,-8(fp)
	ldl	r0,-8(fp)
	li	r1,$0
	beql	r0,r1,L3
L5:
	ldl	r0,_g
	addi	r0,r0,$10
	stl	r0,_g
L3:
	li	r0,$1
	li	r1,$0
	beqb	r0,r1,L4
	call	$0,_bump
	stl	r0,-12(fp)
	ldl	r0,-12(fp)
	li	r1,$0
	beql	r0,r1,L4
	ldl	r0,_g
	addi	r0,r0,$1
	stl	r0,_g
L4:
	ldl	r0,_g
	ret
# == ternary ==
.globl _main
_main:
	ldl	r0,4(ap)
	li	r1,$0
	blel	r0,r1,L1
	ldl	r0,4(ap)
	mv	r5,r0
	jmp	L2
L1:
	ldl	r0,4(ap)
	negl	r0,r0
	mv	r5,r0
L2:
	mv	r0,r5
	ret
# == boolvalue ==
.globl _main
_main:
	enter	$4
	ldl	r0,4(ap)
	li	r1,$3
	bgtl	r0,r1,L1
	li	r5,$0
	jmp	L2
L1:
	li	r5,$1
L2:
	stl	r5,-4(fp)
	ldl	r0,4(ap)
	li	r1,$7
	beql	r0,r1,L3
	li	r5,$0
	jmp	L4
L3:
	li	r5,$1
L4:
	ldl	r0,-4(fp)
	li	r1,$10
	mull	r1,r1,r0
	addl	r1,r1,r5
	mv	r0,r1
	ret
# == fact ==
.globl _fact
_fact:
	enter	$4
	ldl	r0,4(ap)
	li	r1,$1
	bgtl	r0,r1,L1
	li	r0,$1
	ret
L1:
	ldl	r0,4(ap)
	addi	r0,r0,$-1
	push	r0
	call	$1,_fact
	stl	r0,-4(fp)
	ldl	r0,4(ap)
	ldl	r1,-4(fp)
	mull	r0,r0,r1
	ret
.globl _main
_main:
	push	$6
	call	$1,_fact
	ret
# == fib ==
.globl _fib
_fib:
	enter	$8
	ldl	r0,4(ap)
	li	r1,$2
	bgel	r0,r1,L1
	ldl	r0,4(ap)
	ret
L1:
	ldl	r0,4(ap)
	addi	r0,r0,$-1
	push	r0
	call	$1,_fib
	stl	r0,-4(fp)
	ldl	r0,4(ap)
	addi	r0,r0,$-2
	push	r0
	call	$1,_fib
	stl	r0,-8(fp)
	ldl	r0,-4(fp)
	ldl	r1,-8(fp)
	addl	r0,r0,r1
	ret
.globl _main
_main:
	push	$10
	call	$1,_fib
	ret
# == nestedcalls ==
.globl _add
_add:
	ldl	r0,4(ap)
	ldl	r1,8(ap)
	addl	r0,r0,r1
	ret
.globl _main
_main:
	enter	$12
	push	$5
	push	$4
	call	$2,_add
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	push	r0
	push	$3
	call	$2,_add
	stl	r0,-8(fp)
	ldl	r0,-8(fp)
	push	r0
	push	$2
	push	$1
	call	$2,_add
	stl	r0,-12(fp)
	ldl	r0,-12(fp)
	push	r0
	call	$2,_add
	ret
# == arrays ==
.data
.comm _a,40
.text
.globl _main
_main:
	enter	$4
	li	r0,$0
	stl	r0,-4(fp)
L1:
	ldl	r0,-4(fp)
	li	r1,$10
	bgel	r0,r1,L2
	la	r0,_a
	ldl	r1,-4(fp)
	li	r2,$4
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,-4(fp)
	ldl	r2,-4(fp)
	mull	r1,r1,r2
	stl	r1,(r0)
L3:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L1
L2:
	ldl	r0,_a+28
	ret
# == localarrays ==
.globl _main
_main:
	enter	$20
	la	r0,-16(fp)
	li	r1,$1
	stl	r1,(r0)
	la	r0,-16(fp)
	li	r1,$2
	stl	r1,4(r0)
	la	r0,-16(fp)
	li	r1,$3
	stl	r1,8(r0)
	la	r0,-16(fp)
	li	r1,$4
	stl	r1,12(r0)
	la	r0,-16(fp)
	stl	r0,-20(fp)
	ldl	r0,-20(fp)
	addi	r0,r0,$4
	stl	r0,-20(fp)
	ldl	r0,-20(fp)
	ldl	r1,(r0)
	ldl	r0,-20(fp)
	ldl	r2,4(r0)
	addl	r1,r1,r2
	la	r0,-16(fp)
	ldl	r2,12(r0)
	addl	r1,r1,r2
	mv	r0,r1
	ret
# == chararray ==
.data
.comm _tab,8
.text
.globl _main
_main:
	enter	$4
	li	r0,$0
	stl	r0,-4(fp)
L1:
	ldl	r0,-4(fp)
	li	r1,$8
	bgel	r0,r1,L2
	la	r0,_tab
	ldl	r1,-4(fp)
	addl	r0,r0,r1
	ldl	r1,-4(fp)
	li	r2,$2
	mull	r2,r2,r1
	stb	r2,(r0)
L3:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L1
L2:
	ldb	r0,_tab+3
	cvtbl	r0,r0
	ldb	r1,_tab+5
	cvtbl	r1,r1
	ldb	r2,_tab+7
	cvtbl	r2,r2
	mull	r1,r1,r2
	addl	r0,r0,r1
	ldb	r1,_tab+2
	cvtbl	r1,r1
	li	r2,$15
	mull	r2,r2,r1
	addl	r0,r0,r2
	ret
# == shortarray ==
.data
.comm _v,12
.text
.globl _main
_main:
	enter	$4
	li	r0,$0
	stl	r0,-4(fp)
L1:
	ldl	r0,-4(fp)
	li	r1,$6
	bgel	r0,r1,L2
	la	r0,_v
	ldl	r1,-4(fp)
	li	r2,$2
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,-4(fp)
	li	r2,$1000
	mull	r2,r2,r1
	stw	r2,(r0)
L3:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L1
L2:
	ldw	r0,_v+2
	cvtwl	r0,r0
	ldw	r1,_v+4
	cvtwl	r1,r1
	addl	r0,r0,r1
	ret
# == pointers ==
.data
.comm _g,4
.text
.globl _main
_main:
	enter	$4
	la	r0,_g
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$33
	stl	r1,(r0)
	ldl	r0,_g
	addi	r0,r0,$9
	ret
# == ptrdiff ==
.data
.comm _a,40
.text
.globl _main
_main:
	enter	$8
	la	r0,_a
	addi	r0,r0,$8
	stl	r0,-4(fp)
	la	r0,_a
	addi	r0,r0,$36
	stl	r0,-8(fp)
	ldl	r0,-8(fp)
	ldl	r1,-4(fp)
	subl	r0,r0,r1
	li	r1,$4
	divl	r0,r0,r1
	ret
# == incdec ==
.globl _main
_main:
	enter	$16
	li	r0,$5
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	stl	r0,-16(fp)
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	ldl	r0,-16(fp)
	stl	r0,-8(fp)
	ldl	r0,-4(fp)
	addi	r0,r0,$-1
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	stl	r0,-12(fp)
	ldl	r0,-8(fp)
	li	r1,$100
	mull	r1,r1,r0
	ldl	r0,-12(fp)
	li	r2,$10
	mull	r2,r2,r0
	addl	r1,r1,r2
	ldl	r0,-4(fp)
	addl	r1,r1,r0
	mv	r0,r1
	ret
# == compound ==
.globl _main
_main:
	enter	$4
	li	r0,$10
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	addi	r0,r0,$5
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	addi	r0,r0,$-3
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$4
	mull	r1,r1,r0
	stl	r1,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$2
	divl	r0,r0,r1
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$13
	reml	r0,r0,r1
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$4
	mull	r1,r1,r0
	stl	r1,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$1
	sral	r0,r0,r1
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$14
	andl	r1,r1,r0
	stl	r1,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$1
	orl	r1,r1,r0
	stl	r1,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$2
	xorl	r1,r1,r0
	stl	r1,-4(fp)
	ldl	r0,-4(fp)
	ret
# == bitops ==
.globl _main
_main:
	li	r0,$15
	ret
# == shifts ==
.globl _main
_main:
	ldl	r0,4(ap)
	li	r1,$8
	mull	r1,r1,r0
	ldl	r0,4(ap)
	li	r2,$1
	sral	r0,r0,r2
	addl	r1,r1,r0
	mv	r0,r1
	ret
# == varshifts ==
.globl _main
_main:
	enter	$4
	li	r0,$8
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	ldl	r1,4(ap)
	slll	r0,r0,r1
	ldl	r1,-4(fp)
	ldl	r2,4(ap)
	addi	r2,r2,$-2
	sral	r1,r1,r2
	addl	r0,r0,r1
	ret
# == negshift ==
.globl _main
_main:
	enter	$4
	li	r0,$-16
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$2
	sral	r0,r0,r1
	ret
# == unsigneddiv ==
.data
.comm _u,4
.text
.globl _main
_main:
	li	r0,$0
	stl	r0,_u
	ldl	r0,_u
	addi	r0,r0,$-2
	stl	r0,_u
	ldl	r0,_u
	li	r1,$1000000000
	divul	r0,r0,r1
	ret
# == unsignedmod ==
.data
.comm _u,4
.text
.globl _main
_main:
	li	r0,$-1
	stl	r0,_u
	ldl	r0,_u
	li	r1,$7
	remul	r0,r0,r1
	ret
# == unsignedcmp ==
.data
.comm _u,4
.text
.globl _main
_main:
	li	r0,$-1
	stl	r0,_u
	ldl	r0,_u
	li	r1,$1
	bleul	r0,r1,L1
	li	r0,$1
	ret
L1:
	li	r0,$0
	ret
# == unsignedshr ==
.data
.comm _u,4
.text
.globl _main
_main:
	li	r0,$-4
	stl	r0,_u
	ldl	r0,_u
	li	r1,$30
	srll	r0,r0,r1
	ret
# == registers ==
.globl _main
_main:
	li	r7,$0
	li	r6,$1
L1:
	li	r0,$10
	bgtl	r6,r0,L2
	addl	r0,r7,r6
	mv	r7,r0
L3:
	la	r0,1(r6)
	mv	r6,r0
	jmp	L1
L2:
	mv	r0,r7
	ret
# == regpointer ==
.data
.comm _a,16
.text
.globl _main
_main:
	enter	$4
	li	r0,$0
	stl	r0,-4(fp)
	li	r0,$1
	stl	r0,_a
	li	r0,$2
	stl	r0,_a+4
	la	r0,_a
	mv	r6,r0
	ldl	r0,(r6)
	addi	r6,r6,$4
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	ldl	r1,(r6)
	addi	r6,r6,$4
	addl	r0,r0,r1
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	ret
# == floats ==
.data
.comm _d,8
.comm _f,4
.text
.globl _main
_main:
	lfi	r0,$1.5
	std	r0,_d
	lfi	r0,$2.5
	stf	r0,_f
	ldd	r0,_d
	lfi	r1,$2.0
	muld	r1,r1,r0
	ldf	r0,_f
	cvtfd	r0,r0
	addd	r1,r1,r0
	std	r1,_d
	ldd	r0,_d
	cvtdl	r0,r0
	ret
# == floatarith ==
.data
.comm _x,4
.comm _y,4
.text
.globl _main
_main:
	lfi	r0,$3.5
	stf	r0,_x
	lfi	r0,$0.5
	stf	r0,_y
	ldf	r0,_x
	ldf	r1,_y
	addf	r0,r0,r1
	ldf	r1,_x
	ldf	r2,_y
	subf	r1,r1,r2
	mulf	r0,r0,r1
	cvtfl	r0,r0
	ret
# == doubleparams ==
.globl _half
_half:
	ldd	r0,4(ap)
	lfi	r1,$2.0
	divd	r0,r0,r1
	ret
.globl _main
_main:
	enter	$8
	pushd	$7.0
	call	$2,_half
	std	r0,-8(fp)
	ldd	r0,-8(fp)
	cvtdl	r0,r0
	ret
# == floattoint ==
.data
.comm _f,4
.text
.globl _main
_main:
	lfi	r0,$3.9
	stf	r0,_f
	ldf	r0,_f
	cvtfl	r0,r0
	ret
# == inttofloat ==
.data
.comm _d,8
.comm _n,4
.text
.globl _main
_main:
	li	r0,$5
	stl	r0,_n
	ldl	r0,_n
	cvtld	r0,r0
	std	r0,_d
	ldd	r0,_d
	ldl	r1,_n
	cvtld	r1,r1
	muld	r0,r0,r1
	cvtdl	r0,r0
	ret
# == casts ==
.globl _main
_main:
	enter	$6
	li	r0,$300
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	cvtlb	r0,r0
	stb	r0,-5(fp)
	li	r0,$255
	stb	r0,-6(fp)
	ldb	r0,-5(fp)
	cvtbl	r0,r0
	ldb	r1,-6(fp)
	cvtubl	r1,r1
	addl	r0,r0,r1
	ret
# == uchar ==
.data
.comm _uc,1
.text
.globl _main
_main:
	li	r0,$-1
	stb	r0,_uc
	ldb	r0,_uc
	cvtubl	r0,r0
	ldb	r1,_uc
	cvtubl	r1,r1
	addl	r0,r0,r1
	ret
# == chained ==
.data
.comm _a,4
.comm _b,4
.comm _c,4
.text
.globl _main
_main:
	li	r0,$14
	stl	r0,_c
	li	r0,$14
	stl	r0,_b
	li	r0,$14
	stl	r0,_a
	ldl	r0,_a
	ldl	r1,_b
	addl	r0,r0,r1
	ldl	r1,_c
	addl	r0,r0,r1
	ret
# == deepexpr ==
.data
.comm _w,4
.comm _x,4
.comm _y,4
.comm _z,4
.text
.globl _main
_main:
	li	r0,$1
	stl	r0,_w
	li	r0,$2
	stl	r0,_x
	li	r0,$3
	stl	r0,_y
	li	r0,$4
	stl	r0,_z
	ldl	r0,_w
	ldl	r1,_x
	addl	r0,r0,r1
	ldl	r1,_y
	ldl	r2,_z
	addl	r1,r1,r2
	mull	r0,r0,r1
	ldl	r1,_w
	ldl	r2,_x
	mull	r1,r1,r2
	ldl	r2,_y
	ldl	r3,_z
	mull	r2,r2,r3
	addl	r1,r1,r2
	subl	r0,r0,r1
	ldl	r1,_z
	ldl	r2,_y
	subl	r1,r1,r2
	ldl	r2,_x
	ldl	r3,_w
	subl	r2,r2,r3
	addl	r1,r1,r2
	mull	r0,r0,r1
	li	r1,$3
	mull	r1,r1,r0
	mv	r0,r1
	ret
# == rightheavy ==
.data
.comm _g1,4
.comm _g2,4
.comm _g3,4
.comm _g4,4
.text
.globl _main
_main:
	enter	$4
	li	r0,$1
	stl	r0,_g1
	li	r0,$2
	stl	r0,_g2
	li	r0,$3
	stl	r0,_g3
	li	r0,$4
	stl	r0,_g4
	ldl	r0,_g1
	ldl	r1,_g2
	ldl	r2,_g3
	ldl	r3,_g4
	ldl	r4,_g1
	ldl	r5,_g2
	stl	r0,-4(fp)
	ldl	r0,_g3
	addl	r5,r5,r0
	mull	r4,r4,r5
	addl	r3,r3,r4
	mull	r2,r2,r3
	addl	r1,r1,r2
	ldl	r0,-4(fp)
	subl	r0,r0,r1
	ret
# == sideeffectcond ==
.globl _main
_main:
	enter	$8
	li	r0,$0
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	stl	r0,-8(fp)
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	ldl	r0,-8(fp)
	li	r1,$5
	bgel	r0,r1,L1
	ldl	r0,-4(fp)
	addi	r0,r0,$10
	stl	r0,-4(fp)
L1:
	ldl	r0,-4(fp)
	ret
# == gcd ==
.globl _gcd
_gcd:
	enter	$4
L1:
	ldl	r0,8(ap)
	li	r1,$0
	beql	r0,r1,L2
	ldl	r0,4(ap)
	ldl	r1,8(ap)
	reml	r0,r0,r1
	stl	r0,-4(fp)
	ldl	r0,8(ap)
	stl	r0,4(ap)
	ldl	r0,-4(fp)
	stl	r0,8(ap)
	jmp	L1
L2:
	ldl	r0,4(ap)
	ret
.globl _main
_main:
	push	$24
	push	$54
	call	$2,_gcd
	ret
# == collatz ==
.globl _main
_main:
	enter	$8
	li	r0,$27
	stl	r0,-4(fp)
	li	r0,$0
	stl	r0,-8(fp)
L1:
	ldl	r0,-4(fp)
	li	r1,$1
	beql	r0,r1,L2
	ldl	r0,-4(fp)
	li	r1,$2
	reml	r0,r0,r1
	li	r1,$0
	beql	r0,r1,L3
	ldl	r0,-4(fp)
	li	r1,$3
	mull	r1,r1,r0
	addi	r1,r1,$1
	stl	r1,-4(fp)
	jmp	L4
L3:
	ldl	r0,-4(fp)
	li	r1,$2
	divl	r0,r0,r1
	stl	r0,-4(fp)
L4:
	ldl	r0,-8(fp)
	addi	r0,r0,$1
	stl	r0,-8(fp)
	jmp	L1
L2:
	ldl	r0,-8(fp)
	ret
# == sieve ==
.data
.comm _composite,100
.text
.globl _main
_main:
	enter	$12
	li	r0,$0
	stl	r0,-12(fp)
	li	r0,$2
	stl	r0,-4(fp)
L1:
	ldl	r0,-4(fp)
	li	r1,$100
	bgel	r0,r1,L2
	la	r0,_composite
	ldl	r1,-4(fp)
	addl	r0,r0,r1
	ldb	r1,(r0)
	li	r0,$0
	bneb	r1,r0,L4
	ldl	r0,-12(fp)
	addi	r0,r0,$1
	stl	r0,-12(fp)
	ldl	r0,-4(fp)
	ldl	r1,-4(fp)
	addl	r0,r0,r1
	stl	r0,-8(fp)
L5:
	ldl	r0,-8(fp)
	li	r1,$100
	bgel	r0,r1,L6
	la	r0,_composite
	ldl	r1,-8(fp)
	addl	r0,r0,r1
	li	r1,$1
	stb	r1,(r0)
L7:
	ldl	r0,-8(fp)
	ldl	r1,-4(fp)
	addl	r0,r0,r1
	stl	r0,-8(fp)
	jmp	L5
L6:
L4:
L3:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L1
L2:
	ldl	r0,-12(fp)
	ret
# == bubblesort ==
.data
.comm _a,32
.text
.globl _main
_main:
	enter	$16
	li	r0,$8
	stl	r0,-16(fp)
	li	r0,$0
	stl	r0,-4(fp)
L1:
	ldl	r0,-4(fp)
	ldl	r1,-16(fp)
	bgel	r0,r1,L2
	la	r0,_a
	ldl	r1,-4(fp)
	li	r2,$4
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,-16(fp)
	ldl	r2,-4(fp)
	subl	r1,r1,r2
	stl	r1,(r0)
L3:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L1
L2:
	li	r0,$0
	stl	r0,-4(fp)
L4:
	ldl	r0,-4(fp)
	ldl	r1,-16(fp)
	addi	r1,r1,$-1
	bgel	r0,r1,L5
	li	r0,$0
	stl	r0,-8(fp)
L7:
	ldl	r0,-8(fp)
	ldl	r1,-16(fp)
	addi	r1,r1,$-1
	ldl	r2,-4(fp)
	subl	r1,r1,r2
	bgel	r0,r1,L8
	la	r0,_a
	ldl	r1,-8(fp)
	li	r2,$4
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,(r0)
	la	r0,_a
	ldl	r2,-8(fp)
	addi	r2,r2,$1
	li	r3,$4
	mull	r3,r3,r2
	addl	r0,r0,r3
	ldl	r2,(r0)
	blel	r1,r2,L10
	la	r0,_a
	ldl	r1,-8(fp)
	li	r2,$4
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,(r0)
	stl	r1,-12(fp)
	la	r0,_a
	ldl	r1,-8(fp)
	li	r2,$4
	mull	r2,r2,r1
	addl	r0,r0,r2
	la	r1,_a
	ldl	r2,-8(fp)
	addi	r2,r2,$1
	li	r3,$4
	mull	r3,r3,r2
	addl	r1,r1,r3
	ldl	r2,(r1)
	stl	r2,(r0)
	la	r0,_a
	ldl	r1,-8(fp)
	addi	r1,r1,$1
	li	r2,$4
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,-12(fp)
	stl	r1,(r0)
L10:
L9:
	ldl	r0,-8(fp)
	addi	r0,r0,$1
	stl	r0,-8(fp)
	jmp	L7
L8:
L6:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L4
L5:
	li	r0,$1
	stl	r0,-4(fp)
L11:
	ldl	r0,-4(fp)
	ldl	r1,-16(fp)
	bgel	r0,r1,L12
	la	r0,_a
	ldl	r1,-4(fp)
	li	r2,$4
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,(r0)
	la	r0,_a
	ldl	r2,-4(fp)
	addi	r2,r2,$-1
	li	r3,$4
	mull	r3,r3,r2
	addl	r0,r0,r3
	ldl	r2,(r0)
	bgtl	r1,r2,L14
	li	r0,$0
	ret
L14:
L13:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L11
L12:
	li	r0,$1
	ret
# == matrix ==
.data
.comm _m,36
.text
.globl _main
_main:
	enter	$12
	li	r0,$0
	stl	r0,-12(fp)
	li	r0,$0
	stl	r0,-4(fp)
L1:
	ldl	r0,-4(fp)
	li	r1,$3
	bgel	r0,r1,L2
	li	r0,$0
	stl	r0,-8(fp)
L4:
	ldl	r0,-8(fp)
	li	r1,$3
	bgel	r0,r1,L5
	la	r0,_m
	ldl	r1,-4(fp)
	li	r2,$3
	mull	r2,r2,r1
	ldl	r1,-8(fp)
	addl	r2,r2,r1
	li	r1,$4
	mull	r1,r1,r2
	addl	r0,r0,r1
	ldl	r1,-4(fp)
	ldl	r2,-8(fp)
	addl	r1,r1,r2
	stl	r1,(r0)
L6:
	ldl	r0,-8(fp)
	addi	r0,r0,$1
	stl	r0,-8(fp)
	jmp	L4
L5:
L3:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L1
L2:
	li	r0,$0
	stl	r0,-4(fp)
L7:
	ldl	r0,-4(fp)
	li	r1,$3
	bgel	r0,r1,L8
	ldl	r0,-12(fp)
	la	r1,_m
	ldl	r2,-4(fp)
	li	r3,$3
	mull	r3,r3,r2
	ldl	r2,-4(fp)
	addl	r3,r3,r2
	li	r2,$4
	mull	r2,r2,r3
	addl	r1,r1,r2
	ldl	r2,(r1)
	la	r1,_m
	ldl	r3,-4(fp)
	li	r4,$4
	mull	r4,r4,r3
	addl	r1,r1,r4
	ldl	r3,(r1)
	addl	r2,r2,r3
	addl	r0,r0,r2
	stl	r0,-12(fp)
L9:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L7
L8:
	ldl	r0,-12(fp)
	addi	r0,r0,$8
	ret
# == negation ==
.globl _main
_main:
	enter	$4
	li	r0,$-5
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	ldl	r1,-4(fp)
	mull	r0,r0,r1
	ret
# == complement ==
.globl _main
_main:
	enter	$4
	li	r0,$-17
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	notl	r0,r0
	ret
# == commaop ==
.globl _main
_main:
	enter	$8
	li	r0,$0
	stl	r0,-8(fp)
	li	r0,$0
	stl	r0,-4(fp)
L1:
	ldl	r0,-4(fp)
	li	r1,$3
	bgel	r0,r1,L2
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
L3:
	ldl	r0,-8(fp)
	addi	r0,r0,$10
	stl	r0,-8(fp)
	jmp	L1
L2:
	ldl	r0,-8(fp)
	ret
# == scopes ==
.data
.align 2
_x:
	.long 1
.text
.globl _main
_main:
	enter	$8
	li	r0,$2
	stl	r0,-4(fp)
	li	r0,$3
	stl	r0,-8(fp)
	ldl	r0,-8(fp)
	li	r1,$3
	beql	r0,r1,L1
	li	r0,$100
	ret
L1:
	ldl	r0,-4(fp)
	ret
# == manyargs ==
.globl _sum6
_sum6:
	ldl	r0,4(ap)
	ldl	r1,8(ap)
	addl	r0,r0,r1
	ldl	r1,12(ap)
	addl	r0,r0,r1
	ldl	r1,16(ap)
	addl	r0,r0,r1
	ldl	r1,20(ap)
	addl	r0,r0,r1
	ldl	r1,24(ap)
	addl	r0,r0,r1
	ret
.globl _main
_main:
	push	$6
	push	$5
	push	$4
	push	$3
	push	$2
	push	$1
	call	$6,_sum6
	ret
# == mixedwidth ==
.data
.comm _c,1
.comm _s,2
.comm _l,4
.text
.globl _main
_main:
	li	r0,$9
	stb	r0,_c
	li	r0,$300
	stw	r0,_s
	ldb	r0,_c
	cvtbl	r0,r0
	ldw	r1,_s
	cvtwl	r1,r1
	mull	r0,r0,r1
	ldb	r1,_c
	cvtbl	r1,r1
	li	r2,$2
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldw	r1,_s
	cvtwl	r1,r1
	li	r2,$3
	divl	r1,r1,r2
	addl	r0,r0,r1
	stl	r0,_l
	ldl	r0,_l
	addi	r0,r0,$-2397
	ret
# == addressarith ==
.data
.comm _a,20
.text
.globl _main
_main:
	enter	$12
	li	r0,$0
	stl	r0,-8(fp)
	li	r0,$0
	stl	r0,-12(fp)
L1:
	ldl	r0,-12(fp)
	li	r1,$5
	bgel	r0,r1,L2
	la	r0,_a
	ldl	r1,-12(fp)
	li	r2,$4
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,-12(fp)
	addi	r1,r1,$1
	stl	r1,(r0)
L3:
	ldl	r0,-12(fp)
	addi	r0,r0,$1
	stl	r0,-12(fp)
	jmp	L1
L2:
	la	r0,_a
	stl	r0,-4(fp)
L4:
	ldl	r0,-4(fp)
	la	r1,_a
	addi	r1,r1,$20
	bgeul	r0,r1,L5
	ldl	r0,-8(fp)
	ldl	r1,-4(fp)
	ldl	r2,(r1)
	addl	r0,r0,r2
	stl	r0,-8(fp)
L6:
	ldl	r0,-4(fp)
	addi	r0,r0,$4
	stl	r0,-4(fp)
	jmp	L4
L5:
	ldl	r0,-8(fp)
	ret
# == voidcall ==
.data
.comm _g,4
.text
.globl _setg
_setg:
	ldl	r0,4(ap)
	stl	r0,_g
	ret
.globl _main
_main:
	push	$7
	call	$1,_setg
	ldl	r0,_g
	ret
# == ptrinmemory ==
.data
.comm _g,4
.comm _gp,4
.text
.globl _main
_main:
	enter	$4
	li	r0,$5
	stl	r0,_g
	la	r0,_g
	stl	r0,-4(fp)
	la	r0,_g
	stl	r0,_gp
	ldl	r0,-4(fp)
	ldl	r1,-4(fp)
	ldl	r2,(r1)
	addi	r2,r2,$10
	stl	r2,(r0)
	ldl	r0,_gp
	ldl	r1,(r0)
	mv	r0,r1
	ret
# == ptrtoptr ==
.data
.comm _x,4
.comm _p,4
.comm _pp,4
.text
.globl _main
_main:
	li	r0,$40
	stl	r0,_x
	la	r0,_x
	stl	r0,_p
	la	r0,_p
	stl	r0,_pp
	ldl	r0,_pp
	ldl	r1,(r0)
	ldl	r0,_pp
	ldl	r2,(r0)
	ldl	r0,(r2)
	addi	r0,r0,$2
	stl	r0,(r1)
	ldl	r0,_pp
	ldl	r1,(r0)
	ldl	r0,(r1)
	ret
# == doublechain ==
.data
.comm _a,8
.comm _b,8
.comm _c,8
.text
.globl _main
_main:
	lfi	r0,$1.5
	std	r0,_a
	lfi	r0,$2.5
	std	r0,_b
	ldd	r0,_a
	ldd	r1,_b
	addd	r0,r0,r1
	ldd	r1,_a
	ldd	r2,_b
	addd	r1,r1,r2
	muld	r0,r0,r1
	ldd	r1,_a
	ldd	r2,_b
	muld	r1,r1,r2
	addd	r0,r0,r1
	ldd	r1,_b
	ldd	r2,_a
	subd	r1,r1,r2
	addd	r0,r0,r1
	std	r0,_c
	ldd	r0,_c
	cvtdl	r0,r0
	ret
# == floatcompare ==
.data
.comm _x,4
.comm _y,4
.text
.globl _main
_main:
	enter	$4
	li	r0,$0
	stl	r0,-4(fp)
	lfi	r0,$1.25
	stf	r0,_x
	lfi	r0,$2.5
	stf	r0,_y
	ldf	r0,_x
	ldf	r1,_y
	bgef	r0,r1,L1
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
L1:
	ldf	r0,_y
	ldf	r1,_x
	ldf	r2,_x
	addf	r1,r1,r2
	bltf	r0,r1,L2
	ldl	r0,-4(fp)
	addi	r0,r0,$2
	stl	r0,-4(fp)
L2:
	ldf	r0,_x
	ldf	r1,_y
	bnef	r0,r1,L3
	ldl	r0,-4(fp)
	addi	r0,r0,$4
	stl	r0,-4(fp)
L3:
	ldl	r0,-4(fp)
	ret
# == negconstants ==
.globl _main
_main:
	enter	$4
	li	r0,$-3
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$3
	mull	r1,r1,r0
	mv	r0,r1
	ret
# == mixedsigns ==
.globl _main
_main:
	enter	$8
	li	r0,$-17
	stl	r0,-4(fp)
	li	r0,$5
	stl	r0,-8(fp)
	ldl	r0,-4(fp)
	ldl	r1,-8(fp)
	reml	r0,r0,r1
	li	r1,$0
	blel	r0,r1,L1
	li	r5,$1
	jmp	L2
L1:
	li	r5,$-1
L2:
	ldl	r0,-4(fp)
	ldl	r1,-8(fp)
	divl	r0,r0,r1
	mull	r0,r0,r5
	addi	r0,r0,$1
	ret
# == whilesideeffect ==
.globl _main
_main:
	enter	$12
	li	r0,$10
	stl	r0,-4(fp)
	li	r0,$0
	stl	r0,-8(fp)
L1:
	ldl	r0,-4(fp)
	stl	r0,-12(fp)
	ldl	r0,-4(fp)
	addi	r0,r0,$-1
	stl	r0,-4(fp)
	ldl	r0,-12(fp)
	li	r1,$0
	beql	r0,r1,L2
	ldl	r0,-8(fp)
	addi	r0,r0,$1
	stl	r0,-8(fp)
	jmp	L1
L2:
	ldl	r0,-8(fp)
	ret
# == regptrwalk ==
.data
.comm _a,32
.text
.globl _main
_main:
	enter	$4
	li	r0,$0
	stl	r0,-4(fp)
L1:
	ldl	r0,-4(fp)
	li	r1,$8
	bgel	r0,r1,L2
	la	r0,_a
	ldl	r1,-4(fp)
	li	r2,$4
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,-4(fp)
	stl	r1,(r0)
L3:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L1
L2:
	li	r7,$0
	la	r0,_a
	mv	r6,r0
L4:
	la	r0,_a
	addi	r0,r0,$32
	bgeul	r6,r0,L5
	ldl	r0,(r6)
	addi	r6,r6,$4
	addl	r0,r7,r0
	mv	r7,r0
L6:
	jmp	L4
L5:
	mv	r0,r7
	ret
# == selectnested ==
.globl _pick
_pick:
	enter	$4
	ldl	r0,4(ap)
	li	r1,$0
	beql	r0,r1,L1
	ldl	r0,8(ap)
	ldl	r1,12(ap)
	blel	r0,r1,L3
	ldl	r0,8(ap)
	mv	r4,r0
	jmp	L4
L3:
	ldl	r0,12(ap)
	mv	r4,r0
L4:
	mv	r5,r4
	jmp	L2
L1:
	ldl	r0,8(ap)
	ldl	r1,12(ap)
	bgel	r0,r1,L5
	ldl	r0,8(ap)
	stl	r0,-4(fp)
	jmp	L6
L5:
	ldl	r0,12(ap)
	stl	r0,-4(fp)
L6:
	ldl	r0,-4(fp)
	mv	r5,r0
L2:
	mv	r0,r5
	ret
.globl _main
_main:
	enter	$8
	push	$13
	push	$9
	push	$1
	call	$3,_pick
	stl	r0,-4(fp)
	push	$0
	push	$7
	push	$0
	call	$3,_pick
	stl	r0,-8(fp)
	ldl	r0,-4(fp)
	ldl	r1,-8(fp)
	addl	r0,r0,r1
	ret
# == xorswap ==
.globl _main
_main:
	enter	$8
	li	r0,$123
	stl	r0,-4(fp)
	li	r0,$456
	stl	r0,-8(fp)
	ldl	r0,-4(fp)
	ldl	r1,-8(fp)
	xorl	r0,r0,r1
	stl	r0,-4(fp)
	ldl	r0,-8(fp)
	ldl	r1,-4(fp)
	xorl	r0,r0,r1
	stl	r0,-8(fp)
	ldl	r0,-4(fp)
	ldl	r1,-8(fp)
	xorl	r0,r0,r1
	stl	r0,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$456
	bnel	r0,r1,L3
	ldl	r0,-8(fp)
	li	r1,$123
	beql	r0,r1,L1
L3:
	li	r5,$0
	jmp	L2
L1:
	li	r5,$1
L2:
	mv	r0,r5
	ret
# == switch ==
.globl _classify
_classify:
	enter	$4
	ldl	r0,4(ap)
	stl	r0,-4(fp)
	jmp	L2
L3:
	li	r0,$1
	ret
L4:
L5:
	li	r0,$20
	ret
L6:
	li	r0,$300
	ret
L7:
	li	r0,$4000
	ret
	jmp	L1
L2:
	ldl	r0,-4(fp)
	li	r1,$0
	beql	r0,r1,L3
	ldl	r0,-4(fp)
	li	r1,$1
	beql	r0,r1,L4
	ldl	r0,-4(fp)
	li	r1,$2
	beql	r0,r1,L5
	ldl	r0,-4(fp)
	li	r1,$7
	beql	r0,r1,L6
	jmp	L7
L1:
	ret
.globl _main
_main:
	enter	$24
	push	$0
	call	$1,_classify
	stl	r0,-4(fp)
	push	$1
	call	$1,_classify
	stl	r0,-8(fp)
	push	$2
	call	$1,_classify
	stl	r0,-12(fp)
	push	$7
	call	$1,_classify
	stl	r0,-16(fp)
	push	$99
	call	$1,_classify
	stl	r0,-20(fp)
	push	$-1
	call	$1,_classify
	stl	r0,-24(fp)
	ldl	r0,-4(fp)
	ldl	r1,-8(fp)
	addl	r0,r0,r1
	ldl	r1,-12(fp)
	addl	r0,r0,r1
	ldl	r1,-16(fp)
	li	r2,$2
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,-20(fp)
	li	r2,$8
	divl	r1,r1,r2
	addl	r0,r0,r1
	ldl	r1,-24(fp)
	li	r2,$10
	divl	r1,r1,r2
	addl	r0,r0,r1
	ret
# == byteptrarith ==
.data
.comm _carr,16
.comm _x,4
.text
.globl _main
_main:
	enter	$4
	li	r0,$0
	stl	r0,-4(fp)
L1:
	ldl	r0,-4(fp)
	li	r1,$16
	bgel	r0,r1,L2
	la	r0,_carr
	ldl	r1,-4(fp)
	addl	r0,r0,r1
	ldl	r1,-4(fp)
	stb	r1,(r0)
L3:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L1
L2:
	li	r0,$3
	stl	r0,_x
	la	r0,_carr
	addi	r0,r0,$1
	ldl	r1,_x
	addl	r0,r0,r1
	ldb	r1,(r0)
	cvtbl	r1,r1
	la	r0,_carr
	ldl	r2,_x
	addl	r0,r0,r2
	ldl	r2,_x
	addl	r0,r0,r2
	ldb	r2,(r0)
	cvtbl	r2,r2
	addl	r1,r1,r2
	la	r0,_carr
	ldl	r2,_x
	li	r3,$2
	mull	r3,r3,r2
	addi	r3,r3,$8
	addl	r0,r0,r3
	ldb	r2,(r0)
	cvtbl	r2,r2
	li	r0,$1
	divl	r2,r2,r0
	addl	r1,r1,r2
	mv	r0,r1
	ret
# == switchfall ==
.globl _main
_main:
	enter	$16
	li	r0,$0
	stl	r0,-4(fp)
	li	r0,$1
	stl	r0,-8(fp)
	ldl	r0,-8(fp)
	stl	r0,-12(fp)
	jmp	L2
L3:
	ldl	r0,-4(fp)
	addi	r0,r0,$1000
	stl	r0,-4(fp)
L4:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
L5:
	ldl	r0,-4(fp)
	addi	r0,r0,$10
	stl	r0,-4(fp)
	jmp	L1
L6:
	ldl	r0,-4(fp)
	addi	r0,r0,$10000
	stl	r0,-4(fp)
	jmp	L1
L2:
	ldl	r0,-12(fp)
	li	r1,$0
	beql	r0,r1,L3
	ldl	r0,-12(fp)
	li	r1,$1
	beql	r0,r1,L4
	ldl	r0,-12(fp)
	li	r1,$2
	beql	r0,r1,L5
	ldl	r0,-12(fp)
	li	r1,$3
	beql	r0,r1,L6
L1:
	ldl	r0,-8(fp)
	addi	r0,r0,$1
	stl	r0,-16(fp)
	jmp	L8
L9:
	ldl	r0,-4(fp)
	addi	r0,r0,$100
	stl	r0,-4(fp)
	jmp	L7
L8:
	ldl	r0,-16(fp)
	li	r1,$2
	beql	r0,r1,L9
L7:
	ldl	r0,-4(fp)
	ret
# == ternarychain ==
.globl _grade
_grade:
	enter	$4
	ldl	r0,4(ap)
	li	r1,$10
	bgel	r0,r1,L1
	li	r5,$1
	jmp	L2
L1:
	ldl	r0,4(ap)
	li	r1,$20
	bgel	r0,r1,L3
	li	r4,$2
	jmp	L4
L3:
	ldl	r0,4(ap)
	li	r1,$30
	bgel	r0,r1,L5
	li	r0,$3
	stl	r0,-4(fp)
	jmp	L6
L5:
	li	r0,$4
	stl	r0,-4(fp)
L6:
	ldl	r0,-4(fp)
	mv	r4,r0
L4:
	mv	r5,r4
L2:
	mv	r0,r5
	ret
.globl _main
_main:
	enter	$16
	push	$5
	call	$1,_grade
	stl	r0,-4(fp)
	push	$15
	call	$1,_grade
	stl	r0,-8(fp)
	push	$25
	call	$1,_grade
	stl	r0,-12(fp)
	push	$99
	call	$1,_grade
	stl	r0,-16(fp)
	ldl	r0,-4(fp)
	ldl	r1,-8(fp)
	li	r2,$2
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,-12(fp)
	li	r2,$3
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,-16(fp)
	li	r2,$4
	mull	r2,r2,r1
	addl	r0,r0,r2
	ret
# == condvalue ==
.globl _main
_main:
	enter	$20
	li	r0,$3
	stl	r0,-4(fp)
	li	r0,$0
	stl	r0,-8(fp)
	ldl	r0,-4(fp)
	li	r1,$2
	bgtl	r0,r1,L1
	li	r5,$0
	jmp	L2
L1:
	li	r5,$1
L2:
	ldl	r0,-8(fp)
	li	r1,$0
	beql	r0,r1,L3
	li	r4,$0
	jmp	L4
L3:
	li	r4,$1
L4:
	addl	r0,r5,r4
	stl	r0,-12(fp)
	ldl	r0,-4(fp)
	li	r1,$0
	beql	r0,r1,L7
	ldl	r0,-8(fp)
	li	r1,$0
	bnel	r0,r1,L5
L7:
	li	r5,$0
	jmp	L6
L5:
	li	r5,$1
L6:
	ldl	r0,-4(fp)
	li	r1,$0
	bnel	r0,r1,L8
	ldl	r0,-8(fp)
	li	r1,$0
	bnel	r0,r1,L8
	li	r4,$0
	jmp	L9
L8:
	li	r4,$1
L9:
	orl	r0,r5,r4
	stl	r0,-16(fp)
	ldl	r0,-4(fp)
	ldl	r1,-8(fp)
	bgtl	r0,r1,L10
	li	r5,$0
	jmp	L11
L10:
	li	r5,$1
L11:
	ldl	r0,-4(fp)
	li	r1,$3
	bnel	r0,r1,L12
	ldl	r0,-8(fp)
	li	r1,$1
	bltl	r0,r1,L12
	li	r4,$0
	jmp	L13
L12:
	li	r4,$1
L13:
	mull	r0,r5,r4
	stl	r0,-20(fp)
	ldl	r0,-12(fp)
	li	r1,$100
	mull	r1,r1,r0
	ldl	r0,-16(fp)
	li	r2,$10
	mull	r2,r2,r0
	addl	r1,r1,r2
	ldl	r0,-20(fp)
	addl	r1,r1,r0
	mv	r0,r1
	ret
# == reverseops ==
.data
.comm _g,4
.comm _arr,16
.text
.globl _main
_main:
	enter	$4
	li	r0,$1
	stl	r0,-4(fp)
	li	r0,$2
	stl	r0,_g
	ldl	r0,_g
	la	r1,_arr
	ldl	r2,-4(fp)
	addi	r2,r2,$1
	li	r3,$4
	mull	r3,r3,r2
	addl	r1,r1,r3
	ldl	r2,(r1)
	ldl	r1,_g
	addi	r1,r1,$3
	mull	r2,r2,r1
	addl	r0,r0,r2
	la	r1,_arr
	ldl	r2,-4(fp)
	li	r3,$4
	mull	r3,r3,r2
	addl	r1,r1,r3
	stl	r0,(r1)
	ldl	r0,_arr
	la	r1,_arr
	ldl	r2,-4(fp)
	li	r3,$4
	mull	r3,r3,r2
	addl	r1,r1,r3
	ldl	r2,(r1)
	ldl	r1,_g
	li	r3,$4
	mull	r3,r3,r1
	addi	r3,r3,$-1
	subl	r2,r2,r3
	subl	r0,r0,r2
	stl	r0,_arr
	ldl	r0,_arr
	la	r1,_arr
	ldl	r2,-4(fp)
	li	r3,$4
	mull	r3,r3,r2
	addl	r1,r1,r3
	ldl	r2,(r1)
	addl	r0,r0,r2
	ret
# == narrowrassign ==
.data
.comm _cbuf,8
.comm _sbuf,16
.comm _arr,64
.comm _c0,4
.text
.globl _main
_main:
	li	r0,$3
	stl	r0,_arr+48
	li	r0,$5
	stl	r0,_c0
	li	r0,$2
	stb	r0,_cbuf+6
	li	r0,$77
	stw	r0,_sbuf+6
	la	r0,_sbuf
	ldl	r1,_arr+48
	li	r2,$7
	andl	r2,r2,r1
	li	r1,$2
	mull	r1,r1,r2
	addl	r0,r0,r1
	ldw	r1,(r0)
	cvtwl	r1,r1
	ldl	r0,_c0
	ldb	r2,_cbuf+6
	cvtbl	r2,r2
	addl	r0,r0,r2
	andl	r1,r1,r0
	la	r0,_sbuf
	ldl	r2,_arr+48
	li	r3,$7
	andl	r3,r3,r2
	li	r2,$2
	mull	r2,r2,r3
	addl	r0,r0,r2
	stw	r1,(r0)
	ldw	r0,_sbuf+6
	cvtwl	r0,r0
	li	r1,$32
	orl	r1,r1,r0
	addi	r1,r1,$1
	stb	r1,_cbuf+2
	ldw	r0,_sbuf+6
	cvtwl	r0,r0
	ldb	r1,_cbuf+2
	cvtbl	r1,r1
	addl	r0,r0,r1
	ret
# == idxstoreurem ==
.data
.comm _arr,32
.comm _u,4
.text
.globl _main
_main:
	enter	$4
	li	r0,$3
	stl	r0,-4(fp)
	li	r0,$13
	stl	r0,_u
	la	r0,_arr
	ldl	r1,-4(fp)
	addi	r1,r1,$1
	li	r2,$7
	andl	r2,r2,r1
	li	r1,$4
	mull	r1,r1,r2
	addl	r0,r0,r1
	ldl	r1,_u
	li	r2,$7
	remul	r1,r1,r2
	li	r2,$20
	subl	r2,r2,r1
	stl	r2,(r0)
	ldl	r0,_arr+16
	ret
# == condspill ==
.data
.comm _u0,4
.text
.globl _main
_main:
	li	r0,$9
	stl	r0,_u0
	li	r0,$0
	li	r1,$0
	beqb	r0,r1,L1
	ldl	r0,_u0
	li	r1,$3
	divul	r0,r0,r1
	mv	r5,r0
	jmp	L2
L1:
	li	r5,$32765
L2:
	ldl	r0,4(ap)
	li	r1,$2
	reml	r0,r0,r1
	li	r1,$256
	orl	r1,r1,r0
	addl	r1,r5,r1
	mv	r0,r1
	ret
# == idxexhaust ==
.data
.comm _c1,1
.comm _sbuf,16
.comm _arr,64
.text
.globl _main
_main:
	li	r0,$9
	stb	r0,_c1
	li	r0,$44
	stw	r0,_sbuf+10
	li	r0,$0
	li	r1,$0
	bnel	r0,r1,L1
	li	r5,$0
	jmp	L2
L1:
	li	r5,$1
L2:
	li	r0,$0
	li	r1,$0
	bnel	r0,r1,L3
	li	r4,$0
	jmp	L4
L3:
	li	r4,$1
L4:
	la	r0,_arr
	li	r1,$15
	andl	r1,r1,r4
	li	r2,$4
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,(r0)
	ldw	r0,_sbuf+10
	cvtwl	r0,r0
	ldb	r2,_c1
	cvtbl	r2,r2
	li	r3,$15
	andl	r3,r3,r2
	li	r2,$1
	orl	r2,r2,r3
	reml	r0,r0,r2
	orl	r1,r1,r0
	la	r0,_arr
	li	r2,$15
	andl	r2,r2,r5
	li	r3,$4
	mull	r3,r3,r2
	addl	r0,r0,r3
	stl	r1,(r0)
	ldl	r0,_arr
	ret
# == large12 ==
.data
.comm _acc,4
.comm _data,256
.text
.globl _f0
_f0:
	enter	$8
	li	r0,$0
	stl	r0,-8(fp)
	li	r0,$0
	stl	r0,-4(fp)
L1:
	ldl	r0,-4(fp)
	li	r1,$10
	bgel	r0,r1,L2
	ldl	r0,-8(fp)
	ldl	r1,4(ap)
	ldl	r2,-4(fp)
	addl	r1,r1,r2
	li	r2,$3
	mull	r2,r2,r1
	ldl	r1,-8(fp)
	li	r3,$2
	sral	r1,r1,r3
	subl	r2,r2,r1
	addl	r0,r0,r2
	stl	r0,-8(fp)
L3:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L1
L2:
	ldl	r0,4(ap)
	addi	r0,r0,$2
	ldl	r1,-8(fp)
	addi	r1,r1,$3
	addl	r0,r0,r1
	ldl	r1,-8(fp)
	addi	r1,r1,$1
	mull	r0,r0,r1
	ldl	r1,-8(fp)
	ldl	r2,4(ap)
	addl	r1,r1,r2
	subl	r1,r1,r0
	stl	r1,-8(fp)
	ldl	r0,-8(fp)
	li	r1,$9973
	reml	r0,r0,r1
	ret
.globl _f1
_f1:
	enter	$4
	li	r0,$0
	stl	r0,-4(fp)
L5:
	ldl	r0,-4(fp)
	li	r1,$16
	bgel	r0,r1,L6
	la	r0,_data
	ldl	r1,-4(fp)
	addi	r1,r1,$7
	li	r2,$4
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,4(ap)
	ldl	r2,-4(fp)
	ldl	r3,-4(fp)
	mull	r2,r2,r3
	addl	r1,r1,r2
	stl	r1,(r0)
L7:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L5
L6:
	ldl	r0,_data+40
	ldl	r1,_data+72
	addl	r0,r0,r1
	ret
.globl _f2
_f2:
	enter	$4
	ldl	r0,4(ap)
	li	r1,$100
	blel	r0,r1,L9
	ldl	r0,4(ap)
	li	r1,$2
	divl	r0,r0,r1
	push	r0
	call	$1,_f1
	stl	r0,-4(fp)
	ldl	r0,4(ap)
	ldl	r1,-4(fp)
	subl	r0,r0,r1
	ret
L9:
	ldl	r0,4(ap)
	li	r1,$3
	reml	r0,r0,r1
	li	r1,$0
	bnel	r0,r1,L12
	ldl	r0,4(ap)
	li	r1,$0
	bgtl	r0,r1,L11
L12:
	ldl	r0,4(ap)
	li	r1,$-50
	bgel	r0,r1,L10
L11:
	ldl	r0,4(ap)
	li	r1,$2
	mull	r1,r1,r0
	addi	r1,r1,$1
	mv	r0,r1
	ret
L10:
	ldl	r0,4(ap)
	li	r1,$0
	blel	r0,r1,L13
	ldl	r0,4(ap)
	addi	r0,r0,$2
	mv	r5,r0
	jmp	L14
L13:
	ldl	r0,4(ap)
	li	r1,$2
	subl	r1,r1,r0
	mv	r5,r1
L14:
	mv	r0,r5
	ret
.globl _f3
_f3:
	ldl	r0,4(ap)
	mv	r7,r0
	li	r6,$1
L16:
	li	r0,$12
	bgtl	r6,r0,L17
	li	r0,$2
	mull	r0,r0,r7
	addl	r0,r0,r6
	xorl	r0,r7,r0
	mv	r7,r0
	li	r0,$16777215
	andl	r0,r0,r7
	mv	r7,r0
L18:
	la	r0,1(r6)
	mv	r6,r0
	jmp	L16
L17:
	li	r0,$8191
	reml	r0,r7,r0
	ret
.globl _f4
_f4:
	enter	$12
	ldl	r0,4(ap)
	li	r1,$3
	mull	r1,r1,r0
	addi	r1,r1,$-7
	stl	r1,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$11
	reml	r0,r0,r1
	stl	r0,-8(fp)
	ldl	r0,-4(fp)
	addi	r0,r0,$100
	stl	r0,-12(fp)
	ldl	r0,-12(fp)
	li	r1,$3
	divul	r0,r0,r1
	stl	r0,-12(fp)
	ldl	r0,-4(fp)
	li	r1,$0
	bgtl	r0,r1,L20
	li	r5,$0
	jmp	L21
L20:
	li	r5,$1
L21:
	ldl	r0,-8(fp)
	ldl	r1,-12(fp)
	li	r2,$971
	remul	r1,r1,r2
	addl	r0,r0,r1
	li	r1,$4
	mull	r1,r1,r5
	addl	r0,r0,r1
	ret
.globl _f5
_f5:
	enter	$8
	li	r0,$0
	stl	r0,-8(fp)
	li	r0,$0
	stl	r0,-4(fp)
L23:
	ldl	r0,-4(fp)
	li	r1,$10
	bgel	r0,r1,L24
	ldl	r0,-8(fp)
	ldl	r1,4(ap)
	ldl	r2,-4(fp)
	addl	r1,r1,r2
	li	r2,$8
	mull	r2,r2,r1
	ldl	r1,-8(fp)
	li	r3,$2
	sral	r1,r1,r3
	subl	r2,r2,r1
	addl	r0,r0,r2
	stl	r0,-8(fp)
L25:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L23
L24:
	ldl	r0,4(ap)
	addi	r0,r0,$2
	ldl	r1,-8(fp)
	addi	r1,r1,$3
	addl	r0,r0,r1
	ldl	r1,-8(fp)
	addi	r1,r1,$1
	mull	r0,r0,r1
	ldl	r1,-8(fp)
	ldl	r2,4(ap)
	addl	r1,r1,r2
	subl	r1,r1,r0
	stl	r1,-8(fp)
	ldl	r0,-8(fp)
	li	r1,$9973
	reml	r0,r0,r1
	ret
.globl _f6
_f6:
	enter	$4
	li	r0,$0
	stl	r0,-4(fp)
L27:
	ldl	r0,-4(fp)
	li	r1,$16
	bgel	r0,r1,L28
	la	r0,_data
	ldl	r1,-4(fp)
	addi	r1,r1,$42
	li	r2,$4
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,4(ap)
	ldl	r2,-4(fp)
	ldl	r3,-4(fp)
	mull	r2,r2,r3
	addl	r1,r1,r2
	stl	r1,(r0)
L29:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L27
L28:
	ldl	r0,_data+180
	ldl	r1,_data+212
	addl	r0,r0,r1
	ret
.globl _f7
_f7:
	enter	$4
	ldl	r0,4(ap)
	li	r1,$100
	blel	r0,r1,L31
	ldl	r0,4(ap)
	li	r1,$2
	divl	r0,r0,r1
	push	r0
	call	$1,_f6
	stl	r0,-4(fp)
	ldl	r0,4(ap)
	ldl	r1,-4(fp)
	subl	r0,r0,r1
	ret
L31:
	ldl	r0,4(ap)
	li	r1,$3
	reml	r0,r0,r1
	li	r1,$0
	bnel	r0,r1,L34
	ldl	r0,4(ap)
	li	r1,$0
	bgtl	r0,r1,L33
L34:
	ldl	r0,4(ap)
	li	r1,$-50
	bgel	r0,r1,L32
L33:
	ldl	r0,4(ap)
	li	r1,$2
	mull	r1,r1,r0
	addi	r1,r1,$1
	mv	r0,r1
	ret
L32:
	ldl	r0,4(ap)
	li	r1,$0
	blel	r0,r1,L35
	ldl	r0,4(ap)
	addi	r0,r0,$7
	mv	r5,r0
	jmp	L36
L35:
	ldl	r0,4(ap)
	li	r1,$7
	subl	r1,r1,r0
	mv	r5,r1
L36:
	mv	r0,r5
	ret
.globl _f8
_f8:
	ldl	r0,4(ap)
	mv	r7,r0
	li	r6,$1
L38:
	li	r0,$12
	bgtl	r6,r0,L39
	li	r0,$2
	mull	r0,r0,r7
	addl	r0,r0,r6
	xorl	r0,r7,r0
	mv	r7,r0
	li	r0,$16777215
	andl	r0,r0,r7
	mv	r7,r0
L40:
	la	r0,1(r6)
	mv	r6,r0
	jmp	L38
L39:
	li	r0,$8191
	reml	r0,r7,r0
	ret
.globl _f9
_f9:
	enter	$12
	ldl	r0,4(ap)
	li	r1,$3
	mull	r1,r1,r0
	addi	r1,r1,$-7
	stl	r1,-4(fp)
	ldl	r0,-4(fp)
	li	r1,$11
	reml	r0,r0,r1
	stl	r0,-8(fp)
	ldl	r0,-4(fp)
	addi	r0,r0,$100
	stl	r0,-12(fp)
	ldl	r0,-12(fp)
	li	r1,$3
	divul	r0,r0,r1
	stl	r0,-12(fp)
	ldl	r0,-4(fp)
	li	r1,$0
	bgtl	r0,r1,L42
	li	r5,$0
	jmp	L43
L42:
	li	r5,$1
L43:
	ldl	r0,-8(fp)
	ldl	r1,-12(fp)
	li	r2,$971
	remul	r1,r1,r2
	addl	r0,r0,r1
	li	r1,$9
	mull	r1,r1,r5
	addl	r0,r0,r1
	ret
.globl _f10
_f10:
	enter	$8
	li	r0,$0
	stl	r0,-8(fp)
	li	r0,$0
	stl	r0,-4(fp)
L45:
	ldl	r0,-4(fp)
	li	r1,$10
	bgel	r0,r1,L46
	ldl	r0,-8(fp)
	ldl	r1,4(ap)
	ldl	r2,-4(fp)
	addl	r1,r1,r2
	li	r2,$13
	mull	r2,r2,r1
	ldl	r1,-8(fp)
	li	r3,$2
	sral	r1,r1,r3
	subl	r2,r2,r1
	addl	r0,r0,r2
	stl	r0,-8(fp)
L47:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L45
L46:
	ldl	r0,4(ap)
	addi	r0,r0,$2
	ldl	r1,-8(fp)
	addi	r1,r1,$3
	addl	r0,r0,r1
	ldl	r1,-8(fp)
	addi	r1,r1,$1
	mull	r0,r0,r1
	ldl	r1,-8(fp)
	ldl	r2,4(ap)
	addl	r1,r1,r2
	subl	r1,r1,r0
	stl	r1,-8(fp)
	ldl	r0,-8(fp)
	li	r1,$9973
	reml	r0,r0,r1
	ret
.globl _f11
_f11:
	enter	$4
	li	r0,$0
	stl	r0,-4(fp)
L49:
	ldl	r0,-4(fp)
	li	r1,$16
	bgel	r0,r1,L50
	la	r0,_data
	ldl	r1,-4(fp)
	addi	r1,r1,$29
	li	r2,$4
	mull	r2,r2,r1
	addl	r0,r0,r2
	ldl	r1,4(ap)
	ldl	r2,-4(fp)
	ldl	r3,-4(fp)
	mull	r2,r2,r3
	addl	r1,r1,r2
	stl	r1,(r0)
L51:
	ldl	r0,-4(fp)
	addi	r0,r0,$1
	stl	r0,-4(fp)
	jmp	L49
L50:
	ldl	r0,_data+128
	ldl	r1,_data+160
	addl	r0,r0,r1
	ret
.globl _main
_main:
	enter	$48
	li	r0,$1
	stl	r0,_acc
	ldl	r0,_acc
	addi	r0,r0,$0
	push	r0
	call	$1,_f0
	stl	r0,-4(fp)
	ldl	r0,_acc
	ldl	r1,-4(fp)
	addl	r0,r0,r1
	li	r1,$100000
	reml	r0,r0,r1
	stl	r0,_acc
	ldl	r0,_acc
	addi	r0,r0,$1
	push	r0
	call	$1,_f1
	stl	r0,-8(fp)
	ldl	r0,_acc
	ldl	r1,-8(fp)
	addl	r0,r0,r1
	li	r1,$100000
	reml	r0,r0,r1
	stl	r0,_acc
	ldl	r0,_acc
	addi	r0,r0,$2
	push	r0
	call	$1,_f2
	stl	r0,-12(fp)
	ldl	r0,_acc
	ldl	r1,-12(fp)
	addl	r0,r0,r1
	li	r1,$100000
	reml	r0,r0,r1
	stl	r0,_acc
	ldl	r0,_acc
	addi	r0,r0,$3
	push	r0
	call	$1,_f3
	stl	r0,-16(fp)
	ldl	r0,_acc
	ldl	r1,-16(fp)
	addl	r0,r0,r1
	li	r1,$100000
	reml	r0,r0,r1
	stl	r0,_acc
	ldl	r0,_acc
	addi	r0,r0,$4
	push	r0
	call	$1,_f4
	stl	r0,-20(fp)
	ldl	r0,_acc
	ldl	r1,-20(fp)
	addl	r0,r0,r1
	li	r1,$100000
	reml	r0,r0,r1
	stl	r0,_acc
	ldl	r0,_acc
	addi	r0,r0,$5
	push	r0
	call	$1,_f5
	stl	r0,-24(fp)
	ldl	r0,_acc
	ldl	r1,-24(fp)
	addl	r0,r0,r1
	li	r1,$100000
	reml	r0,r0,r1
	stl	r0,_acc
	ldl	r0,_acc
	addi	r0,r0,$6
	push	r0
	call	$1,_f6
	stl	r0,-28(fp)
	ldl	r0,_acc
	ldl	r1,-28(fp)
	addl	r0,r0,r1
	li	r1,$100000
	reml	r0,r0,r1
	stl	r0,_acc
	ldl	r0,_acc
	addi	r0,r0,$7
	push	r0
	call	$1,_f7
	stl	r0,-32(fp)
	ldl	r0,_acc
	ldl	r1,-32(fp)
	addl	r0,r0,r1
	li	r1,$100000
	reml	r0,r0,r1
	stl	r0,_acc
	ldl	r0,_acc
	addi	r0,r0,$8
	push	r0
	call	$1,_f8
	stl	r0,-36(fp)
	ldl	r0,_acc
	ldl	r1,-36(fp)
	addl	r0,r0,r1
	li	r1,$100000
	reml	r0,r0,r1
	stl	r0,_acc
	ldl	r0,_acc
	addi	r0,r0,$9
	push	r0
	call	$1,_f9
	stl	r0,-40(fp)
	ldl	r0,_acc
	ldl	r1,-40(fp)
	addl	r0,r0,r1
	li	r1,$100000
	reml	r0,r0,r1
	stl	r0,_acc
	ldl	r0,_acc
	addi	r0,r0,$10
	push	r0
	call	$1,_f10
	stl	r0,-44(fp)
	ldl	r0,_acc
	ldl	r1,-44(fp)
	addl	r0,r0,r1
	li	r1,$100000
	reml	r0,r0,r1
	stl	r0,_acc
	ldl	r0,_acc
	addi	r0,r0,$11
	push	r0
	call	$1,_f11
	stl	r0,-48(fp)
	ldl	r0,_acc
	ldl	r1,-48(fp)
	addl	r0,r0,r1
	li	r1,$100000
	reml	r0,r0,r1
	stl	r0,_acc
	ldl	r0,_acc
	ret

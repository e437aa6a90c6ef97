# == return42 ==
.globl _main
_main:	.word 0
	movl	$42,r0
	ret
# == arith ==
.globl _main
_main:	.word 0
	divl3	$6,$36,r0
	divl3	$4,r0,r1
	mull2	$4,r1
	subl3	r1,r0,r1
	subl3	r1,$35,r1
	movl	r1,r0
	ret
# == appendix ==
.data
.comm _a,4
.text
.globl _main
_main:	.word 0
	subl2	$1,sp
	movb	$100,-1(fp)
	cvtbl	-1(fp),r0
	addl3	$27,r0,_a
	movl	_a,r0
	ret
# == globals ==
.data
.comm _a,4
.align 2
_b:
	.long 10
.text
.globl _main
_main:	.word 0
	movl	$27,_a
	addl3	_a,_b,r0
	ret
# == locals ==
.globl _main
_main:	.word 0
	subl2	$8,sp
	movl	$5,-4(fp)
	mull3	$3,-4(fp),-8(fp)
	subl3	-4(fp),-8(fp),r0
	ret
# == chars ==
.data
.comm _c,1
.comm _s,2
.text
.globl _main
_main:	.word 0
	movb	$44,_c
	movw	$4464,_s
	cvtbl	_c,r0
	cvtwl	_s,r1
	addl2	r1,r0
	ret
# == ifelse ==
.globl _classify
_classify:	.word 0
	tstl	4(ap)
	jgeq	L1
	movl	$-1,r0
	ret
	jbr	L2
L1:
	tstl	4(ap)
	jneq	L3
	clrl	r0
	ret
	jbr	L4
L3:
	movl	$1,r0
	ret
L4:
L2:
	ret
.globl _main
_main:	.word 0
	pushl	4(ap)
	calls	$1,_classify
	ret
# == whileloop ==
.globl _main
_main:	.word 0
	subl2	$8,sp
	movl	$1,-4(fp)
	clrl	-8(fp)
L1:
	cmpl	-4(fp),$10
	jgtr	L2
	addl2	-4(fp),-8(fp)
	incl	-4(fp)
	jbr	L1
L2:
	movl	-8(fp),r0
	ret
# == forloop ==
.globl _main
_main:	.word 0
	subl2	$8,sp
	clrl	-8(fp)
	clrl	-4(fp)
L1:
	cmpl	-4(fp),$100
	jgeq	L2
	divl3	$2,-4(fp),r0
	mull2	$2,r0
	subl3	r0,-4(fp),r0
	jeql	L4
	jbr	L3
L4:
	cmpl	-4(fp),$10
	jleq	L5
	jbr	L2
L5:
	addl2	-4(fp),-8(fp)
L3:
	incl	-4(fp)
	jbr	L1
L2:
	movl	-8(fp),r0
	ret
# == dowhile ==
.globl _main
_main:	.word 0
	subl2	$8,sp
	clrl	-4(fp)
	clrl	-8(fp)
L1:
	incl	-8(fp)
	addl2	$3,-4(fp)
L3:
	cmpl	-4(fp),$10
	jlss	L1
L2:
	movl	-8(fp),r0
	ret
# == shortcircuit ==
.data
.comm _g,4
.text
.globl _bump
_bump:	.word 0
	incl	_g
	movl	$1,r0
	ret
.globl _main
_main:	.word 0
	subl2	$12,sp
	clrl	_g
	tstb	$0
	jeql	L2
	calls	$0,_bump
	movl	r0,-4(fp)
	tstl	-4(fp)
	jeql	L2
	addl2	$100,_g
L2:
	tstb	$1
	jneq	L5
	calls	$0,_bump
	movl	r0,-8(fp)
	tstl	-8(fp)
	jeql	L3
L5:
	addl2	$10,_g
L3:
	tstb	$1
	jeql	L4
	calls	$0,_bump
	movl	r0,-12(fp)
	tstl	-12(fp)
	jeql	L4
	incl	_g
L4:
	movl	_g,r0
	ret
# == ternary ==
.globl _main
_main:	.word 0
	tstl	4(ap)
	jleq	L1
	movl	4(ap),r5
	jbr	L2
L1:
	mnegl	4(ap),r5
L2:
	movl	r5,r0
	ret
# == boolvalue ==
.globl _main
_main:	.word 0
	subl2	$4,sp
	cmpl	4(ap),$3
	jgtr	L1
	clrl	r5
	jbr	L2
L1:
	movl	$1,r5
L2:
	movl	r5,-4(fp)
	cmpl	4(ap),$7
	jeql	L3
	clrl	r5
	jbr	L4
L3:
	movl	$1,r5
L4:
	mull3	$10,-4(fp),r0
	addl2	r5,r0
	ret
# == fact ==
.globl _fact
_fact:	.word 0
	subl2	$4,sp
	cmpl	4(ap),$1
	jgtr	L1
	movl	$1,r0
	ret
L1:
	addl3	$-1,4(ap),r0
	pushl	r0
	calls	$1,_fact
	movl	r0,-4(fp)
	mull3	4(ap),-4(fp),r0
	ret
.globl _main
_main:	.word 0
	pushl	$6
	calls	$1,_fact
	ret
# == fib ==
.globl _fib
_fib:	.word 0
	subl2	$8,sp
	cmpl	4(ap),$2
	jgeq	L1
	movl	4(ap),r0
	ret
L1:
	addl3	$-1,4(ap),r0
	pushl	r0
	calls	$1,_fib
	movl	r0,-4(fp)
	addl3	$-2,4(ap),r0
	pushl	r0
	calls	$1,_fib
	movl	r0,-8(fp)
	addl3	-4(fp),-8(fp),r0
	ret
.globl _main
_main:	.word 0
	pushl	$10
	calls	$1,_fib
	ret
# == nestedcalls ==
.globl _add
_add:	.word 0
	addl3	4(ap),8(ap),r0
	ret
.globl _main
_main:	.word 0
	subl2	$12,sp
	pushl	$5
	pushl	$4
	calls	$2,_add
	movl	r0,-4(fp)
	pushl	-4(fp)
	pushl	$3
	calls	$2,_add
	movl	r0,-8(fp)
	pushl	-8(fp)
	pushl	$2
	pushl	$1
	calls	$2,_add
	movl	r0,-12(fp)
	pushl	-12(fp)
	calls	$2,_add
	ret
# == arrays ==
.data
.comm _a,40
.text
.globl _main
_main:	.word 0
	subl2	$4,sp
	clrl	-4(fp)
L1:
	cmpl	-4(fp),$10
	jgeq	L2
	movl	-4(fp),r0
	mull3	-4(fp),-4(fp),_a[r0]
L3:
	incl	-4(fp)
	jbr	L1
L2:
	movl	_a+28,r0
	ret
# == localarrays ==
.globl _main
_main:	.word 0
	subl2	$20,sp
	movl	$1,-16(fp)
	movl	$2,-12(fp)
	movl	$3,-8(fp)
	movl	$4,-4(fp)
	moval	-16(fp),r0
	movl	r0,-20(fp)
	addl2	$4,-20(fp)
	movl	-20(fp),r0
	addl3	*-20(fp),4(r0),r1
	addl2	-4(fp),r1
	movl	r1,r0
	ret
# == chararray ==
.data
.comm _tab,8
.text
.globl _main
_main:	.word 0
	subl2	$4,sp
	clrl	-4(fp)
L1:
	cmpl	-4(fp),$8
	jgeq	L2
	moval	_tab,r0
	addl2	-4(fp),r0
	mull3	$2,-4(fp),r1
	movb	r1,(r0)
L3:
	incl	-4(fp)
	jbr	L1
L2:
	cvtbl	_tab+3,r0
	cvtbl	_tab+5,r1
	cvtbl	_tab+7,r2
	mull2	r2,r1
	addl2	r1,r0
	cvtbl	_tab+2,r1
	mull2	$15,r1
	addl2	r1,r0
	ret
# == shortarray ==
.data
.comm _v,12
.text
.globl _main
_main:	.word 0
	subl2	$4,sp
	clrl	-4(fp)
L1:
	cmpl	-4(fp),$6
	jgeq	L2
	movl	-4(fp),r0
	mull3	$1000,-4(fp),r1
	movw	r1,_v[r0]
L3:
	incl	-4(fp)
	jbr	L1
L2:
	cvtwl	_v+2,r0
	cvtwl	_v+4,r1
	addl2	r1,r0
	ret
# == pointers ==
.data
.comm _g,4
.text
.globl _main
_main:	.word 0
	subl2	$4,sp
	moval	_g,r0
	movl	r0,-4(fp)
	movl	$33,*-4(fp)
	addl3	$9,_g,r0
	ret
# == ptrdiff ==
.data
.comm _a,40
.text
.globl _main
_main:	.word 0
	subl2	$8,sp
	moval	_a,r0
	addl3	$8,r0,-4(fp)
	moval	_a,r0
	addl3	$36,r0,-8(fp)
	subl3	-4(fp),-8(fp),r0
	divl2	$4,r0
	ret
# == incdec ==
.globl _main
_main:	.word 0
	subl2	$16,sp
	movl	$5,-4(fp)
	movl	-4(fp),-16(fp)
	incl	-4(fp)
	movl	-16(fp),-8(fp)
	decl	-4(fp)
	movl	-4(fp),-12(fp)
	mull3	$100,-8(fp),r0
	mull3	$10,-12(fp),r1
	addl2	r1,r0
	addl2	-4(fp),r0
	ret
# == compound ==
.globl _main
_main:	.word 0
	subl2	$4,sp
	movl	$10,-4(fp)
	addl2	$5,-4(fp)
	addl2	$-3,-4(fp)
	mull2	$4,-4(fp)
	divl2	$2,-4(fp)
	divl3	$13,-4(fp),r0
	mull2	$13,r0
	subl3	r0,-4(fp),r0
	movl	r0,-4(fp)
	mull2	$4,-4(fp)
	ashl	$-1,-4(fp),r0
	movl	r0,-4(fp)
	bicl3	$-15,-4(fp),r0
	movl	r0,-4(fp)
	bisl2	$1,-4(fp)
	xorl2	$2,-4(fp)
	movl	-4(fp),r0
	ret
# == bitops ==
.globl _main
_main:	.word 0
	movl	$15,r0
	ret
# == shifts ==
.globl _main
_main:	.word 0
	mull3	$8,4(ap),r0
	ashl	$-1,4(ap),r1
	addl2	r1,r0
	ret
# == varshifts ==
.globl _main
_main:	.word 0
	subl2	$4,sp
	movl	$8,-4(fp)
	ashl	4(ap),-4(fp),r0
	addl3	$-2,4(ap),r1
	mnegl	r1,r1
	ashl	r1,-4(fp),r2
	addl2	r2,r0
	ret
# == negshift ==
.globl _main
_main:	.word 0
	subl2	$4,sp
	movl	$-16,-4(fp)
	ashl	$-2,-4(fp),r0
	ret
# == unsigneddiv ==
.data
.comm _u,4
.text
.globl _main
_main:	.word 0
	clrl	_u
	addl2	$-2,_u
	pushl	$1000000000
	pushl	_u
	calls	$2,_udiv
	ret
# == unsignedmod ==
.data
.comm _u,4
.text
.globl _main
_main:	.word 0
	movl	$-1,_u
	pushl	$7
	pushl	_u
	calls	$2,_urem
	ret
# == unsignedcmp ==
.data
.comm _u,4
.text
.globl _main
_main:	.word 0
	movl	$-1,_u
	cmpl	_u,$1
	jlequ	L1
	movl	$1,r0
	ret
L1:
	clrl	r0
	ret
# == unsignedshr ==
.data
.comm _u,4
.text
.globl _main
_main:	.word 0
	movl	$-4,_u
	extzv	$30,$2,_u,r0
	ret
# == registers ==
.globl _main
_main:	.word 0
	clrl	r7
	movl	$1,r6
L1:
	cmpl	r6,$10
	jgtr	L2
	addl2	r6,r7
L3:
	moval	1(r6),r0
	movl	r0,r6
	jbr	L1
L2:
	movl	r7,r0
	ret
# == regpointer ==
.data
.comm _a,16
.text
.globl _main
_main:	.word 0
	subl2	$4,sp
	clrl	-4(fp)
	movl	$1,_a
	movl	$2,_a+4
	moval	_a,r0
	movl	r0,r6
	movl	(r6)+,-4(fp)
	addl2	(r6)+,-4(fp)
	movl	-4(fp),r0
	ret
# == floats ==
.data
.comm _d,8
.comm _f,4
.text
.globl _main
_main:	.word 0
	movd	$1.5,_d
	movf	$2.5,_f
	muld3	$2,_d,r0
	cvtfd	_f,r2
	addd3	r0,r2,_d
	cvtdl	_d,r0
	ret
# == floatarith ==
.data
.comm _x,4
.comm _y,4
.text
.globl _main
_main:	.word 0
	movf	$3.5,_x
	movf	$0.5,_y
	addf3	_x,_y,r0
	subf3	_y,_x,r1
	mulf2	r1,r0
	cvtfl	r0,r0
	ret
# == doubleparams ==
.globl _half
_half:	.word 0
	divd3	$2,4(ap),r0
	ret
.globl _main
_main:	.word 0
	subl2	$8,sp
	movd	$7.0,-(sp)
	calls	$2,_half
	movd	r0,-8(fp)
	cvtdl	-8(fp),r0
	ret
# == floattoint ==
.data
.comm _f,4
.text
.globl _main
_main:	.word 0
	movf	$3.9,_f
	cvtfl	_f,r0
	ret
# == inttofloat ==
.data
.comm _d,8
.comm _n,4
.text
.globl _main
_main:	.word 0
	movl	$5,_n
	cvtld	_n,r0
	movd	r0,_d
	cvtld	_n,r0
	muld2	_d,r0
	cvtdl	r0,r2
	movl	r2,r0
	ret
# == casts ==
.globl _main
_main:	.word 0
	subl2	$6,sp
	movl	$300,-4(fp)
	cvtlb	-4(fp),r0
	movb	r0,-5(fp)
	movb	$-1,-6(fp)
	cvtbl	-5(fp),r0
	movzbl	-6(fp),r1
	addl2	r1,r0
	ret
# == uchar ==
.data
.comm _uc,1
.text
.globl _main
_main:	.word 0
	movb	$-1,_uc
	movzbl	_uc,r0
	movzbl	_uc,r1
	addl2	r1,r0
	ret
# == chained ==
.data
.comm _a,4
.comm _b,4
.comm _c,4
.text
.globl _main
_main:	.word 0
	movl	$14,_c
	movl	_c,_b
	movl	_b,_a
	addl3	_a,_b,r0
	addl2	_c,r0
	ret
# == deepexpr ==
.data
.comm _w,4
.comm _x,4
.comm _y,4
.comm _z,4
.text
.globl _main
_main:	.word 0
	movl	$1,_w
	movl	$2,_x
	movl	$3,_y
	movl	$4,_z
	addl3	_w,_x,r0
	addl3	_y,_z,r1
	mull2	r1,r0
	mull3	_w,_x,r1
	mull3	_y,_z,r2
	addl2	r2,r1
	subl2	r1,r0
	subl3	_y,_z,r1
	subl3	_w,_x,r2
	addl2	r2,r1
	mull2	r1,r0
	mull2	$3,r0
	ret
# == rightheavy ==
.data
.comm _g1,4
.comm _g2,4
.comm _g3,4
.comm _g4,4
.text
.globl _main
_main:	.word 0
	movl	$1,_g1
	movl	$2,_g2
	movl	$3,_g3
	movl	$4,_g4
	addl3	_g2,_g3,r0
	mull2	_g1,r0
	addl2	_g4,r0
	mull2	_g3,r0
	addl2	_g2,r0
	subl3	r0,_g1,r0
	ret
# == sideeffectcond ==
.globl _main
_main:	.word 0
	subl2	$8,sp
	clrl	-4(fp)
	movl	-4(fp),-8(fp)
	incl	-4(fp)
	cmpl	-8(fp),$5
	jgeq	L1
	addl2	$10,-4(fp)
L1:
	movl	-4(fp),r0
	ret
# == gcd ==
.globl _gcd
_gcd:	.word 0
	subl2	$4,sp
L1:
	tstl	8(ap)
	jeql	L2
	divl3	8(ap),4(ap),r0
	mull2	8(ap),r0
	subl3	r0,4(ap),r0
	movl	r0,-4(fp)
	movl	8(ap),4(ap)
	movl	-4(fp),8(ap)
	jbr	L1
L2:
	movl	4(ap),r0
	ret
.globl _main
_main:	.word 0
	pushl	$24
	pushl	$54
	calls	$2,_gcd
	ret
# == collatz ==
.globl _main
_main:	.word 0
	subl2	$8,sp
	movl	$27,-4(fp)
	clrl	-8(fp)
L1:
	cmpl	-4(fp),$1
	jeql	L2
	divl3	$2,-4(fp),r0
	mull2	$2,r0
	subl3	r0,-4(fp),r0
	jeql	L3
	mull3	$3,-4(fp),r0
	addl3	$1,r0,-4(fp)
	jbr	L4
L3:
	divl2	$2,-4(fp)
L4:
	incl	-8(fp)
	jbr	L1
L2:
	movl	-8(fp),r0
	ret
# == sieve ==
.data
.comm _composite,100
.text
.globl _main
_main:	.word 0
	subl2	$12,sp
	clrl	-12(fp)
	movl	$2,-4(fp)
L1:
	cmpl	-4(fp),$100
	jgeq	L2
	moval	_composite,r0
	addl2	-4(fp),r0
	tstb	(r0)
	jneq	L4
	incl	-12(fp)
	addl3	-4(fp),-4(fp),-8(fp)
L5:
	cmpl	-8(fp),$100
	jgeq	L6
	moval	_composite,r0
	addl2	-8(fp),r0
	movb	$1,(r0)
L7:
	addl2	-4(fp),-8(fp)
	jbr	L5
L6:
L4:
L3:
	incl	-4(fp)
	jbr	L1
L2:
	movl	-12(fp),r0
	ret
# == bubblesort ==
.data
.comm _a,32
.text
.globl _main
_main:	.word 0
	subl2	$16,sp
	movl	$8,-16(fp)
	clrl	-4(fp)
L1:
	cmpl	-4(fp),-16(fp)
	jgeq	L2
	movl	-4(fp),r0
	subl3	-4(fp),-16(fp),_a[r0]
L3:
	incl	-4(fp)
	jbr	L1
L2:
	clrl	-4(fp)
L4:
	addl3	$-1,-16(fp),r0
	cmpl	-4(fp),r0
	jgeq	L5
	clrl	-8(fp)
L7:
	addl3	$-1,-16(fp),r0
	subl2	-4(fp),r0
	cmpl	-8(fp),r0
	jgeq	L8
	movl	-8(fp),r0
	addl3	$1,-8(fp),r1
	cmpl	_a[r0],_a[r1]
	jleq	L10
	movl	-8(fp),r0
	movl	_a[r0],-12(fp)
	movl	-8(fp),r0
	addl3	$1,-8(fp),r1
	movl	_a[r1],_a[r0]
	addl3	$1,-8(fp),r0
	movl	-12(fp),_a[r0]
L10:
L9:
	incl	-8(fp)
	jbr	L7
L8:
L6:
	incl	-4(fp)
	jbr	L4
L5:
	movl	$1,-4(fp)
L11:
	cmpl	-4(fp),-16(fp)
	jgeq	L12
	movl	-4(fp),r0
	addl3	$-1,-4(fp),r1
	cmpl	_a[r0],_a[r1]
	jgtr	L14
	clrl	r0
	ret
L14:
L13:
	incl	-4(fp)
	jbr	L11
L12:
	movl	$1,r0
	ret
# == matrix ==
.data
.comm _m,36
.text
.globl _main
_main:	.word 0
	subl2	$12,sp
	clrl	-12(fp)
	clrl	-4(fp)
L1:
	cmpl	-4(fp),$3
	jgeq	L2
	clrl	-8(fp)
L4:
	cmpl	-8(fp),$3
	jgeq	L5
	mull3	$3,-4(fp),r0
	addl2	-8(fp),r0
	addl3	-4(fp),-8(fp),_m[r0]
L6:
	incl	-8(fp)
	jbr	L4
L5:
L3:
	incl	-4(fp)
	jbr	L1
L2:
	clrl	-4(fp)
L7:
	cmpl	-4(fp),$3
	jgeq	L8
	mull3	$3,-4(fp),r0
	addl2	-4(fp),r0
	movl	-4(fp),r1
	addl3	_m[r0],_m[r1],r2
	addl2	r2,-12(fp)
L9:
	incl	-4(fp)
	jbr	L7
L8:
	addl3	$8,-12(fp),r0
	ret
# == negation ==
.globl _main
_main:	.word 0
	subl2	$4,sp
	movl	$-5,-4(fp)
	mull3	-4(fp),-4(fp),r0
	ret
# == complement ==
.globl _main
_main:	.word 0
	subl2	$4,sp
	movl	$-17,-4(fp)
	mcoml	-4(fp),r0
	ret
# == commaop ==
.globl _main
_main:	.word 0
	subl2	$8,sp
	clrl	-8(fp)
	clrl	-4(fp)
L1:
	cmpl	-4(fp),$3
	jgeq	L2
	incl	-4(fp)
L3:
	addl2	$10,-8(fp)
	jbr	L1
L2:
	movl	-8(fp),r0
	ret
# == scopes ==
.data
.align 2
_x:
	.long 1
.text
.globl _main
_main:	.word 0
	subl2	$8,sp
	movl	$2,-4(fp)
	movl	$3,-8(fp)
	cmpl	-8(fp),$3
	jeql	L1
	movl	$100,r0
	ret
L1:
	movl	-4(fp),r0
	ret
# == manyargs ==
.globl _sum6
_sum6:	.word 0
	addl3	4(ap),8(ap),r0
	addl2	12(ap),r0
	addl2	16(ap),r0
	addl2	20(ap),r0
	addl2	24(ap),r0
	ret
.globl _main
_main:	.word 0
	pushl	$6
	pushl	$5
	pushl	$4
	pushl	$3
	pushl	$2
	pushl	$1
	calls	$6,_sum6
	ret
# == mixedwidth ==
.data
.comm _c,1
.comm _s,2
.comm _l,4
.text
.globl _main
_main:	.word 0
	movb	$9,_c
	movw	$300,_s
	cvtbl	_c,r0
	cvtwl	_s,r1
	mull2	r1,r0
	cvtbl	_c,r1
	mull2	$2,r1
	addl2	r1,r0
	cvtwl	_s,r1
	divl2	$3,r1
	addl3	r0,r1,_l
	addl3	$-2397,_l,r0
	ret
# == addressarith ==
.data
.comm _a,20
.text
.globl _main
_main:	.word 0
	subl2	$12,sp
	clrl	-8(fp)
	clrl	-12(fp)
L1:
	cmpl	-12(fp),$5
	jgeq	L2
	movl	-12(fp),r0
	addl3	$1,-12(fp),_a[r0]
L3:
	incl	-12(fp)
	jbr	L1
L2:
	moval	_a,r0
	movl	r0,-4(fp)
L4:
	moval	_a,r0
	addl2	$20,r0
	cmpl	-4(fp),r0
	jgequ	L5
	addl2	*-4(fp),-8(fp)
L6:
	addl2	$4,-4(fp)
	jbr	L4
L5:
	movl	-8(fp),r0
	ret
# == voidcall ==
.data
.comm _g,4
.text
.globl _setg
_setg:	.word 0
	movl	4(ap),_g
	ret
.globl _main
_main:	.word 0
	pushl	$7
	calls	$1,_setg
	movl	_g,r0
	ret
# == ptrinmemory ==
.data
.comm _g,4
.comm _gp,4
.text
.globl _main
_main:	.word 0
	subl2	$4,sp
	movl	$5,_g
	moval	_g,r0
	movl	r0,-4(fp)
	moval	_g,r0
	movl	r0,_gp
	addl2	$10,*-4(fp)
	movl	*_gp,r0
	ret
# == ptrtoptr ==
.data
.comm _x,4
.comm _p,4
.comm _pp,4
.text
.globl _main
_main:	.word 0
	movl	$40,_x
	moval	_x,r0
	movl	r0,_p
	moval	_p,r0
	movl	r0,_pp
	movl	*_pp,r0
	movl	*_pp,r1
	addl3	$2,(r1),(r0)
	movl	*_pp,r0
	movl	(r0),r0
	ret
# == doublechain ==
.data
.comm _a,8
.comm _b,8
.comm _c,8
.text
.globl _main
_main:	.word 0
	movd	$1.5,_a
	movd	$2.5,_b
	addd3	_a,_b,r0
	addd3	_a,_b,r2
	muld2	r2,r0
	muld3	_a,_b,r2
	addd2	r2,r0
	subd3	_a,_b,r2
	addd3	r0,r2,_c
	cvtdl	_c,r0
	ret
# == floatcompare ==
.data
.comm _x,4
.comm _y,4
.text
.globl _main
_main:	.word 0
	subl2	$4,sp
	clrl	-4(fp)
	movf	$1.25,_x
	movf	$2.5,_y
	cmpf	_x,_y
	jgeq	L1
	incl	-4(fp)
L1:
	addf3	_x,_x,r0
	cmpf	_y,r0
	jlss	L2
	addl2	$2,-4(fp)
L2:
	cmpf	_x,_y
	jneq	L3
	addl2	$4,-4(fp)
L3:
	movl	-4(fp),r0
	ret
# == negconstants ==
.globl _main
_main:	.word 0
	subl2	$4,sp
	movl	$-3,-4(fp)
	mull3	$3,-4(fp),r0
	ret
# == mixedsigns ==
.globl _main
_main:	.word 0
	subl2	$8,sp
	movl	$-17,-4(fp)
	movl	$5,-8(fp)
	divl3	-8(fp),-4(fp),r0
	mull2	-8(fp),r0
	subl3	r0,-4(fp),r0
	jleq	L1
	movl	$1,r5
	jbr	L2
L1:
	movl	$-1,r5
L2:
	divl3	-8(fp),-4(fp),r0
	mull2	r5,r0
	incl	r0
	ret
# == whilesideeffect ==
.globl _main
_main:	.word 0
	subl2	$12,sp
	movl	$10,-4(fp)
	clrl	-8(fp)
L1:
	movl	-4(fp),-12(fp)
	decl	-4(fp)
	tstl	-12(fp)
	jeql	L2
	incl	-8(fp)
	jbr	L1
L2:
	movl	-8(fp),r0
	ret
# == regptrwalk ==
.data
.comm _a,32
.text
.globl _main
_main:	.word 0
	subl2	$4,sp
	clrl	-4(fp)
L1:
	cmpl	-4(fp),$8
	jgeq	L2
	movl	-4(fp),r0
	movl	-4(fp),_a[r0]
L3:
	incl	-4(fp)
	jbr	L1
L2:
	clrl	r7
	moval	_a,r0
	movl	r0,r6
L4:
	moval	_a,r0
	addl2	$32,r0
	cmpl	r6,r0
	jgequ	L5
	addl2	(r6)+,r7
L6:
	jbr	L4
L5:
	movl	r7,r0
	ret
# == selectnested ==
.globl _pick
_pick:	.word 0
	subl2	$4,sp
	tstl	4(ap)
	jeql	L1
	cmpl	8(ap),12(ap)
	jleq	L3
	movl	8(ap),r4
	jbr	L4
L3:
	movl	12(ap),r4
L4:
	movl	r4,r5
	jbr	L2
L1:
	cmpl	8(ap),12(ap)
	jgeq	L5
	movl	8(ap),-4(fp)
	jbr	L6
L5:
	movl	12(ap),-4(fp)
L6:
	movl	-4(fp),r5
L2:
	movl	r5,r0
	ret
.globl _main
_main:	.word 0
	subl2	$8,sp
	pushl	$13
	pushl	$9
	pushl	$1
	calls	$3,_pick
	movl	r0,-4(fp)
	pushl	$0
	pushl	$7
	pushl	$0
	calls	$3,_pick
	movl	r0,-8(fp)
	addl3	-4(fp),-8(fp),r0
	ret
# == xorswap ==
.globl _main
_main:	.word 0
	subl2	$8,sp
	movl	$123,-4(fp)
	movl	$456,-8(fp)
	xorl2	-8(fp),-4(fp)
	xorl2	-4(fp),-8(fp)
	xorl2	-8(fp),-4(fp)
	cmpl	-4(fp),$456
	jneq	L3
	cmpl	-8(fp),$123
	jeql	L1
L3:
	clrl	r5
	jbr	L2
L1:
	movl	$1,r5
L2:
	movl	r5,r0
	ret
# == switch ==
.globl _classify
_classify:	.word 0
	subl2	$4,sp
	movl	4(ap),-4(fp)
	jbr	L2
L3:
	movl	$1,r0
	ret
L4:
L5:
	movl	$20,r0
	ret
L6:
	movl	$300,r0
	ret
L7:
	movl	$4000,r0
	ret
	jbr	L1
L2:
	tstl	-4(fp)
	jeql	L3
	cmpl	-4(fp),$1
	jeql	L4
	cmpl	-4(fp),$2
	jeql	L5
	cmpl	-4(fp),$7
	jeql	L6
	jbr	L7
L1:
	ret
.globl _main
_main:	.word 0
	subl2	$24,sp
	pushl	$0
	calls	$1,_classify
	movl	r0,-4(fp)
	pushl	$1
	calls	$1,_classify
	movl	r0,-8(fp)
	pushl	$2
	calls	$1,_classify
	movl	r0,-12(fp)
	pushl	$7
	calls	$1,_classify
	movl	r0,-16(fp)
	pushl	$99
	calls	$1,_classify
	movl	r0,-20(fp)
	pushl	$-1
	calls	$1,_classify
	movl	r0,-24(fp)
	addl3	-4(fp),-8(fp),r0
	addl2	-12(fp),r0
	mull3	$2,-16(fp),r1
	addl2	r1,r0
	divl3	$8,-20(fp),r1
	addl2	r1,r0
	divl3	$10,-24(fp),r1
	addl2	r1,r0
	ret
# == byteptrarith ==
.data
.comm _carr,16
.comm _x,4
.text
.globl _main
_main:	.word 0
	subl2	$4,sp
	clrl	-4(fp)
L1:
	cmpl	-4(fp),$16
	jgeq	L2
	moval	_carr,r0
	addl2	-4(fp),r0
	movb	-4(fp),(r0)
L3:
	incl	-4(fp)
	jbr	L1
L2:
	movl	$3,_x
	moval	_carr,r0
	addl2	_x,r0
	cvtbl	1(r0),r1
	moval	_carr,r0
	addl2	_x,r0
	addl2	_x,r0
	cvtbl	(r0),r2
	addl2	r2,r1
	mull3	$2,_x,r0
	addl2	$8,r0
	moval	_carr,r2
	addl2	r2,r0
	cvtbl	(r0),r2
	addl2	r2,r1
	movl	r1,r0
	ret
# == switchfall ==
.globl _main
_main:	.word 0
	subl2	$16,sp
	clrl	-4(fp)
	movl	$1,-8(fp)
	movl	-8(fp),-12(fp)
	jbr	L2
L3:
	addl2	$1000,-4(fp)
L4:
	incl	-4(fp)
L5:
	addl2	$10,-4(fp)
	jbr	L1
L6:
	addl2	$10000,-4(fp)
	jbr	L1
L2:
	tstl	-12(fp)
	jeql	L3
	cmpl	-12(fp),$1
	jeql	L4
	cmpl	-12(fp),$2
	jeql	L5
	cmpl	-12(fp),$3
	jeql	L6
L1:
	addl3	$1,-8(fp),-16(fp)
	jbr	L8
L9:
	addl2	$100,-4(fp)
	jbr	L7
L8:
	cmpl	-16(fp),$2
	jeql	L9
L7:
	movl	-4(fp),r0
	ret
# == ternarychain ==
.globl _grade
_grade:	.word 0
	subl2	$4,sp
	cmpl	4(ap),$10
	jgeq	L1
	movl	$1,r5
	jbr	L2
L1:
	cmpl	4(ap),$20
	jgeq	L3
	movl	$2,r4
	jbr	L4
L3:
	cmpl	4(ap),$30
	jgeq	L5
	movl	$3,-4(fp)
	jbr	L6
L5:
	movl	$4,-4(fp)
L6:
	movl	-4(fp),r4
L4:
	movl	r4,r5
L2:
	movl	r5,r0
	ret
.globl _main
_main:	.word 0
	subl2	$16,sp
	pushl	$5
	calls	$1,_grade
	movl	r0,-4(fp)
	pushl	$15
	calls	$1,_grade
	movl	r0,-8(fp)
	pushl	$25
	calls	$1,_grade
	movl	r0,-12(fp)
	pushl	$99
	calls	$1,_grade
	movl	r0,-16(fp)
	mull3	$2,-8(fp),r0
	addl2	-4(fp),r0
	mull3	$3,-12(fp),r1
	addl2	r1,r0
	mull3	$4,-16(fp),r1
	addl2	r1,r0
	ret
# == condvalue ==
.globl _main
_main:	.word 0
	subl2	$20,sp
	movl	$3,-4(fp)
	clrl	-8(fp)
	cmpl	-4(fp),$2
	jgtr	L1
	clrl	r5
	jbr	L2
L1:
	movl	$1,r5
L2:
	tstl	-8(fp)
	jeql	L3
	clrl	r4
	jbr	L4
L3:
	movl	$1,r4
L4:
	addl3	r5,r4,-12(fp)
	tstl	-4(fp)
	jeql	L7
	tstl	-8(fp)
	jneq	L5
L7:
	clrl	r5
	jbr	L6
L5:
	movl	$1,r5
L6:
	tstl	-4(fp)
	jneq	L8
	tstl	-8(fp)
	jneq	L8
	clrl	r4
	jbr	L9
L8:
	movl	$1,r4
L9:
	bisl3	r5,r4,-16(fp)
	cmpl	-4(fp),-8(fp)
	jgtr	L10
	clrl	r5
	jbr	L11
L10:
	movl	$1,r5
L11:
	cmpl	-4(fp),$3
	jneq	L12
	cmpl	-8(fp),$1
	jlss	L12
	clrl	r4
	jbr	L13
L12:
	movl	$1,r4
L13:
	mull3	r5,r4,-20(fp)
	mull3	$100,-12(fp),r0
	mull3	$10,-16(fp),r1
	addl2	r1,r0
	addl2	-20(fp),r0
	ret
# == reverseops ==
.data
.comm _g,4
.comm _arr,16
.text
.globl _main
_main:	.word 0
	subl2	$4,sp
	movl	$1,-4(fp)
	movl	$2,_g
	addl3	$1,-4(fp),r0
	addl3	$3,_g,r1
	mull2	_arr[r0],r1
	addl2	_g,r1
	movl	-4(fp),r0
	movl	r1,_arr[r0]
	movl	-4(fp),r0
	mull3	$4,_g,r1
	decl	r1
	subl3	r1,_arr[r0],r1
	subl2	r1,_arr
	movl	-4(fp),r0
	addl3	_arr,_arr[r0],r1
	movl	r1,r0
	ret
# == narrowrassign ==
.data
.comm _cbuf,8
.comm _sbuf,16
.comm _arr,64
.comm _c0,4
.text
.globl _main
_main:	.word 0
	movl	$3,_arr+48
	movl	$5,_c0
	movb	$2,_cbuf+6
	movw	$77,_sbuf+6
	bicl3	$-8,_arr+48,r0
	cvtwl	_sbuf[r0],r1
	cvtbl	_cbuf+6,r0
	addl2	_c0,r0
	mcoml	r0,r0
	bicl2	r0,r1
	bicl3	$-8,_arr+48,r0
	movw	r1,_sbuf[r0]
	cvtwl	_sbuf+6,r0
	bisl2	$32,r0
	incl	r0
	movb	r0,_cbuf+2
	cvtwl	_sbuf+6,r0
	cvtbl	_cbuf+2,r1
	addl2	r1,r0
	ret
# == idxstoreurem ==
.data
.comm _arr,32
.comm _u,4
.text
.globl _main
_main:	.word 0
	subl2	$4,sp
	movl	$3,-4(fp)
	movl	$13,_u
	addl3	$1,-4(fp),r0
	bicl2	$-8,r0
	movl	r0,r1
	pushl	$7
	pushl	_u
	calls	$2,_urem
	subl3	r0,$20,_arr[r1]
	movl	_arr+16,r0
	ret
# == condspill ==
.data
.comm _u0,4
.text
.globl _main
_main:	.word 0
	movl	$9,_u0
	tstb	$0
	jeql	L1
	pushl	$3
	pushl	_u0
	calls	$2,_udiv
	movl	r0,r5
	jbr	L2
L1:
	movl	$32765,r5
L2:
	divl3	$2,4(ap),r0
	mull2	$2,r0
	subl3	r0,4(ap),r0
	bisl2	$256,r0
	addl2	r5,r0
	ret
# == idxexhaust ==
.data
.comm _c1,1
.comm _sbuf,16
.comm _arr,64
.text
.globl _main
_main:	.word 0
	movb	$9,_c1
	movw	$44,_sbuf+10
	tstl	$0
	jneq	L1
	clrl	r5
	jbr	L2
L1:
	movl	$1,r5
L2:
	tstl	$0
	jneq	L3
	clrl	r4
	jbr	L4
L3:
	movl	$1,r4
L4:
	bicl3	$-16,r4,r0
	cvtwl	_sbuf+10,r1
	cvtbl	_c1,r2
	bicl2	$-16,r2
	bisl2	$1,r2
	divl3	r2,r1,r3
	mull2	r2,r3
	subl3	r3,r1,r3
	bisl2	_arr[r0],r3
	bicl3	$-16,r5,r0
	movl	r3,_arr[r0]
	movl	_arr,r0
	ret
# == large12 ==
.data
.comm _acc,4
.comm _data,256
.text
.globl _f0
_f0:	.word 0
	subl2	$8,sp
	clrl	-8(fp)
	clrl	-4(fp)
L1:
	cmpl	-4(fp),$10
	jgeq	L2
	addl3	4(ap),-4(fp),r0
	mull2	$3,r0
	ashl	$-2,-8(fp),r1
	subl2	r1,r0
	addl2	r0,-8(fp)
L3:
	incl	-4(fp)
	jbr	L1
L2:
	addl3	$2,4(ap),r0
	addl3	$3,-8(fp),r1
	addl2	r1,r0
	addl3	$1,-8(fp),r1
	mull2	r1,r0
	addl3	-8(fp),4(ap),r1
	subl2	r0,r1
	movl	r1,-8(fp)
	divl3	$9973,-8(fp),r0
	mull2	$9973,r0
	subl3	r0,-8(fp),r0
	ret
.globl _f1
_f1:	.word 0
	subl2	$4,sp
	clrl	-4(fp)
L5:
	cmpl	-4(fp),$16
	jgeq	L6
	addl3	$7,-4(fp),r0
	mull3	-4(fp),-4(fp),r1
	addl3	4(ap),r1,_data[r0]
L7:
	incl	-4(fp)
	jbr	L5
L6:
	addl3	_data+40,_data+72,r0
	ret
.globl _f2
_f2:	.word 0
	subl2	$4,sp
	cmpl	4(ap),$100
	jleq	L9
	divl3	$2,4(ap),r0
	pushl	r0
	calls	$1,_f1
	movl	r0,-4(fp)
	subl3	-4(fp),4(ap),r0
	ret
L9:
	divl3	$3,4(ap),r0
	mull2	$3,r0
	subl3	r0,4(ap),r0
	jneq	L12
	tstl	4(ap)
	jgtr	L11
L12:
	cmpl	4(ap),$-50
	jgeq	L10
L11:
	mull3	$2,4(ap),r0
	incl	r0
	ret
L10:
	tstl	4(ap)
	jleq	L13
	addl3	$2,4(ap),r5
	jbr	L14
L13:
	subl3	4(ap),$2,r5
L14:
	movl	r5,r0
	ret
.globl _f3
_f3:	.word 0
	movl	4(ap),r7
	movl	$1,r6
L16:
	cmpl	r6,$12
	jgtr	L17
	mull3	$2,r7,r0
	addl2	r6,r0
	xorl2	r0,r7
	bicl3	$-16777216,r7,r0
	movl	r0,r7
L18:
	moval	1(r6),r0
	movl	r0,r6
	jbr	L16
L17:
	divl3	$8191,r7,r0
	mull2	$8191,r0
	subl3	r0,r7,r0
	ret
.globl _f4
_f4:	.word 0
	subl2	$12,sp
	mull3	$3,4(ap),r0
	addl3	$-7,r0,-4(fp)
	divl3	$11,-4(fp),r0
	mull2	$11,r0
	subl3	r0,-4(fp),r0
	movl	r0,-8(fp)
	addl3	$100,-4(fp),-12(fp)
	pushl	$3
	pushl	-12(fp)
	calls	$2,_udiv
	movl	r0,-12(fp)
	tstl	-4(fp)
	jgtr	L20
	clrl	r5
	jbr	L21
L20:
	movl	$1,r5
L21:
	pushl	$971
	pushl	-12(fp)
	calls	$2,_urem
	addl2	-8(fp),r0
	mull3	$4,r5,r1
	addl2	r1,r0
	ret
.globl _f5
_f5:	.word 0
	subl2	$8,sp
	clrl	-8(fp)
	clrl	-4(fp)
L23:
	cmpl	-4(fp),$10
	jgeq	L24
	addl3	4(ap),-4(fp),r0
	mull2	$8,r0
	ashl	$-2,-8(fp),r1
	subl2	r1,r0
	addl2	r0,-8(fp)
L25:
	incl	-4(fp)
	jbr	L23
L24:
	addl3	$2,4(ap),r0
	addl3	$3,-8(fp),r1
	addl2	r1,r0
	addl3	$1,-8(fp),r1
	mull2	r1,r0
	addl3	-8(fp),4(ap),r1
	subl2	r0,r1
	movl	r1,-8(fp)
	divl3	$9973,-8(fp),r0
	mull2	$9973,r0
	subl3	r0,-8(fp),r0
	ret
.globl _f6
_f6:	.word 0
	subl2	$4,sp
	clrl	-4(fp)
L27:
	cmpl	-4(fp),$16
	jgeq	L28
	addl3	$42,-4(fp),r0
	mull3	-4(fp),-4(fp),r1
	addl3	4(ap),r1,_data[r0]
L29:
	incl	-4(fp)
	jbr	L27
L28:
	addl3	_data+180,_data+212,r0
	ret
.globl _f7
_f7:	.word 0
	subl2	$4,sp
	cmpl	4(ap),$100
	jleq	L31
	divl3	$2,4(ap),r0
	pushl	r0
	calls	$1,_f6
	movl	r0,-4(fp)
	subl3	-4(fp),4(ap),r0
	ret
L31:
	divl3	$3,4(ap),r0
	mull2	$3,r0
	subl3	r0,4(ap),r0
	jneq	L34
	tstl	4(ap)
	jgtr	L33
L34:
	cmpl	4(ap),$-50
	jgeq	L32
L33:
	mull3	$2,4(ap),r0
	incl	r0
	ret
L32:
	tstl	4(ap)
	jleq	L35
	addl3	$7,4(ap),r5
	jbr	L36
L35:
	subl3	4(ap),$7,r5
L36:
	movl	r5,r0
	ret
.globl _f8
_f8:	.word 0
	movl	4(ap),r7
	movl	$1,r6
L38:
	cmpl	r6,$12
	jgtr	L39
	mull3	$2,r7,r0
	addl2	r6,r0
	xorl2	r0,r7
	bicl3	$-16777216,r7,r0
	movl	r0,r7
L40:
	moval	1(r6),r0
	movl	r0,r6
	jbr	L38
L39:
	divl3	$8191,r7,r0
	mull2	$8191,r0
	subl3	r0,r7,r0
	ret
.globl _f9
_f9:	.word 0
	subl2	$12,sp
	mull3	$3,4(ap),r0
	addl3	$-7,r0,-4(fp)
	divl3	$11,-4(fp),r0
	mull2	$11,r0
	subl3	r0,-4(fp),r0
	movl	r0,-8(fp)
	addl3	$100,-4(fp),-12(fp)
	pushl	$3
	pushl	-12(fp)
	calls	$2,_udiv
	movl	r0,-12(fp)
	tstl	-4(fp)
	jgtr	L42
	clrl	r5
	jbr	L43
L42:
	movl	$1,r5
L43:
	pushl	$971
	pushl	-12(fp)
	calls	$2,_urem
	addl2	-8(fp),r0
	mull3	$9,r5,r1
	addl2	r1,r0
	ret
.globl _f10
_f10:	.word 0
	subl2	$8,sp
	clrl	-8(fp)
	clrl	-4(fp)
L45:
	cmpl	-4(fp),$10
	jgeq	L46
	addl3	4(ap),-4(fp),r0
	mull2	$13,r0
	ashl	$-2,-8(fp),r1
	subl2	r1,r0
	addl2	r0,-8(fp)
L47:
	incl	-4(fp)
	jbr	L45
L46:
	addl3	$2,4(ap),r0
	addl3	$3,-8(fp),r1
	addl2	r1,r0
	addl3	$1,-8(fp),r1
	mull2	r1,r0
	addl3	-8(fp),4(ap),r1
	subl2	r0,r1
	movl	r1,-8(fp)
	divl3	$9973,-8(fp),r0
	mull2	$9973,r0
	subl3	r0,-8(fp),r0
	ret
.globl _f11
_f11:	.word 0
	subl2	$4,sp
	clrl	-4(fp)
L49:
	cmpl	-4(fp),$16
	jgeq	L50
	addl3	$29,-4(fp),r0
	mull3	-4(fp),-4(fp),r1
	addl3	4(ap),r1,_data[r0]
L51:
	incl	-4(fp)
	jbr	L49
L50:
	addl3	_data+128,_data+160,r0
	ret
.globl _main
_main:	.word 0
	subl2	$48,sp
	movl	$1,_acc
	addl3	$0,_acc,r0
	pushl	r0
	calls	$1,_f0
	movl	r0,-4(fp)
	addl3	_acc,-4(fp),r0
	divl3	$100000,r0,r1
	mull2	$100000,r1
	subl3	r1,r0,r1
	movl	r1,_acc
	addl3	$1,_acc,r0
	pushl	r0
	calls	$1,_f1
	movl	r0,-8(fp)
	addl3	_acc,-8(fp),r0
	divl3	$100000,r0,r1
	mull2	$100000,r1
	subl3	r1,r0,r1
	movl	r1,_acc
	addl3	$2,_acc,r0
	pushl	r0
	calls	$1,_f2
	movl	r0,-12(fp)
	addl3	_acc,-12(fp),r0
	divl3	$100000,r0,r1
	mull2	$100000,r1
	subl3	r1,r0,r1
	movl	r1,_acc
	addl3	$3,_acc,r0
	pushl	r0
	calls	$1,_f3
	movl	r0,-16(fp)
	addl3	_acc,-16(fp),r0
	divl3	$100000,r0,r1
	mull2	$100000,r1
	subl3	r1,r0,r1
	movl	r1,_acc
	addl3	$4,_acc,r0
	pushl	r0
	calls	$1,_f4
	movl	r0,-20(fp)
	addl3	_acc,-20(fp),r0
	divl3	$100000,r0,r1
	mull2	$100000,r1
	subl3	r1,r0,r1
	movl	r1,_acc
	addl3	$5,_acc,r0
	pushl	r0
	calls	$1,_f5
	movl	r0,-24(fp)
	addl3	_acc,-24(fp),r0
	divl3	$100000,r0,r1
	mull2	$100000,r1
	subl3	r1,r0,r1
	movl	r1,_acc
	addl3	$6,_acc,r0
	pushl	r0
	calls	$1,_f6
	movl	r0,-28(fp)
	addl3	_acc,-28(fp),r0
	divl3	$100000,r0,r1
	mull2	$100000,r1
	subl3	r1,r0,r1
	movl	r1,_acc
	addl3	$7,_acc,r0
	pushl	r0
	calls	$1,_f7
	movl	r0,-32(fp)
	addl3	_acc,-32(fp),r0
	divl3	$100000,r0,r1
	mull2	$100000,r1
	subl3	r1,r0,r1
	movl	r1,_acc
	addl3	$8,_acc,r0
	pushl	r0
	calls	$1,_f8
	movl	r0,-36(fp)
	addl3	_acc,-36(fp),r0
	divl3	$100000,r0,r1
	mull2	$100000,r1
	subl3	r1,r0,r1
	movl	r1,_acc
	addl3	$9,_acc,r0
	pushl	r0
	calls	$1,_f9
	movl	r0,-40(fp)
	addl3	_acc,-40(fp),r0
	divl3	$100000,r0,r1
	mull2	$100000,r1
	subl3	r1,r0,r1
	movl	r1,_acc
	addl3	$10,_acc,r0
	pushl	r0
	calls	$1,_f10
	movl	r0,-44(fp)
	addl3	_acc,-44(fp),r0
	divl3	$100000,r0,r1
	mull2	$100000,r1
	subl3	r1,r0,r1
	movl	r1,_acc
	addl3	$11,_acc,r0
	pushl	r0
	calls	$1,_f11
	movl	r0,-48(fp)
	addl3	_acc,-48(fp),r0
	divl3	$100000,r0,r1
	mull2	$100000,r1
	subl3	r1,r0,r1
	movl	r1,_acc
	movl	_acc,r0
	ret

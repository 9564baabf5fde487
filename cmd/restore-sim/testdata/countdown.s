	.imm r1 6
	.imm r2 0
loop:
	addq r2, r1, r2
	subq r1, #1, r1
	bgt  r1, loop
	halt

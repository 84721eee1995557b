# A loop whose static span exceeds the 32-entry issue queue: the dynamic
# detector rejects it at decode time (Decoded.loop_span is above the queue
# size), so the analyzer must report too-large and predict that it never
# promotes.
#
#= loops 1
#= loop loop too-large never

start:
    addi r16, r0, 0
loop:
    addi r3, r3, 1
    addi r4, r4, 2
    addi r5, r5, 3
    addi r6, r6, 4
    addi r7, r7, 5
    addi r8, r8, 6
    addi r9, r9, 7
    addi r10, r10, 8
    addi r3, r3, 1
    addi r4, r4, 2
    addi r5, r5, 3
    addi r6, r6, 4
    addi r7, r7, 5
    addi r8, r8, 6
    addi r9, r9, 7
    addi r10, r10, 8
    addi r3, r3, 1
    addi r4, r4, 2
    addi r5, r5, 3
    addi r6, r6, 4
    addi r7, r7, 5
    addi r8, r8, 6
    addi r9, r9, 7
    addi r10, r10, 8
    addi r3, r3, 1
    addi r4, r4, 2
    addi r5, r5, 3
    addi r6, r6, 4
    addi r7, r7, 5
    addi r8, r8, 6
    addi r9, r9, 7
    addi r10, r10, 8
    addi r16, r16, 1
    slti r2, r16, 100
    bne  r2, r0, loop
    halt

# Unreachable code and data-fact directives. The block after the
# unconditional jump can never execute; riq-lint warns about it from the
# CFG reachability bits unless the `#= unreachable` directive acknowledges
# it. The loop copies one array into another with bumped pointers, and
# the value-range analysis derives the countdown's exact trip count.
#
#= loops 1
#= loop copy ok promotes
#= trip copy 50
#= unreachable 1

.space src 64
.space dst 64

start:
    la   r8, src
    la   r9, dst
    addi r16, r0, 50
copy:
    lw   r5, 0(r8)
    sw   r5, 0(r9)
    addi r8, r8, 4
    addi r9, r9, 4
    addi r16, r16, -1
    bgtz r16, copy
    j    done

dead:                       # never reached: no fallthrough, no branch here
    addi r3, r0, 1
    addi r3, r3, 1

done:
    halt

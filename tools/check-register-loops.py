#!/usr/bin/env python3
"""Checks the kernels' register contract on a disassembly.

Reads `objdump -d --no-show-raw-insn -C` output of the kernel library and,
for every AVX2 / AVX-512 GEMM, A^T*B and SpMM routine, finds the innermost
loops that do vector arithmetic (the contraction and edge loops). An
accumulator that lives in a register is stored once, after its loop, so any
vector store inside one of those loops is reported. Exits 1 when there is
one, 0 otherwise (docs/SIMD.md, "Register contract").

    objdump -d --no-show-raw-insn -C build/src/kernels/libgranii_kernels.a \\
        > kernels.dis
    python3 tools/check-register-loops.py kernels.dis
"""

import re
import sys

ROUTINES = re.compile(
    r"simd_impl::(gemmTile|spmmTile|gemmBlock|gemmTLhsBlock|gemmRows|"
    r"gemmRowRange|gemmTLhsRowRange|spmmRowRange)<")
BRANCH = re.compile(r"j\w+\s+([0-9a-f]+)")
ARITH = re.compile(r"(vfmadd|vadd|vmul)\w*ps")
VECTOR_STORE = re.compile(r"v?mov\w*\s+%[xyz]mm\d+,.*\)$")


def functions(lines):
    """Yields (name, [(address, instruction)]) per disassembled function."""
    name, body = None, []
    for line in lines:
        head = re.match(r"^[0-9a-f]+ <(.*)>:$", line)
        if head:
            if name:
                yield name, body
            name, body = head.group(1), []
            continue
        ins = re.match(r"^\s+([0-9a-f]+):\s+(.*)$", line)
        if ins and name:
            body.append((int(ins.group(1), 16), ins.group(2)))
    if name:
        yield name, body


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        lines = f.read().split("\n")
    checked = stores = 0
    for name, body in functions(lines):
        if not ROUTINES.search(name) or "Avx" not in name:
            continue
        loops = []
        for addr, ins in body:
            m = BRANCH.match(ins)
            if m and int(m.group(1), 16) <= addr:
                loops.append((int(m.group(1), 16), addr))
        innermost = [(b, e) for b, e in loops
                     if not any(b <= b2 and e2 <= e and (b2, e2) != (b, e)
                                for b2, e2 in loops)]
        for begin, end in innermost:
            loop = [ins for addr, ins in body if begin <= addr <= end]
            if not any(ARITH.match(i) for i in loop):
                continue
            if any(i.startswith("call") for i in loop):
                continue
            checked += 1
            for ins in loop:
                if VECTOR_STORE.match(ins):
                    stores += 1
                    print(f"store in loop {begin:#x}-{end:#x}: {ins}\n"
                          f"  in {name[:160]}")
    print(f"{checked} inner arithmetic loops, {stores} vector stores "
          "inside them")
    sys.exit(1 if stores or not checked else 0)


if __name__ == "__main__":
    main()

"""Bytecode opcodes for the register VM.

Instructions are Python tuples ``(op, ...operands)``.  Register operands
are integers indexing the frame's register file; constants, maps,
selectors, and block templates live in per-code constant pools.

Branching instructions encode the *failure/false* target; the
success/true path falls through (codegen lays the common path out as a
straight line, like the trace the paper's diagrams show).
"""

from __future__ import annotations

# Data movement
MOVE = 1          # (MOVE, dst, src)
LOADK = 2         # (LOADK, dst, const_index)

# Raw arithmetic (no checks — the paper's bare instructions)
ADD = 10          # (ADD, dst, a, b)
SUB = 11
MUL = 12
DIV = 13
MOD = 14

# Checked arithmetic: on overflow (or zero divisor) store the failure
# code string into err and jump to target.
ADD_OV = 20       # (ADD_OV, dst, a, b, err, target)
SUB_OV = 21
MUL_OV = 22
DIV_OV = 23
MOD_OV = 24

# Compare-and-branch: jump to target when the comparison is FALSE.
CMP_LT = 30       # (CMP_LT, a, b, target)
CMP_LE = 31
CMP_GT = 32
CMP_GE = 33
CMP_EQ = 34
CMP_NE = 35

# Type test: jump to target when the value's map is NOT the tested map.
TYPETEST = 40     # (TYPETEST, reg, map_index, target)

# Arrays
BOUNDS = 50       # (BOUNDS, arr, idx, target)  jump when out of bounds
ALOAD = 51        # (ALOAD, dst, arr, idx)
ASTORE = 52       # (ASTORE, arr, idx, src)
ALEN = 53         # (ALEN, dst, arr)

# Slots
LOADSLOT = 60     # (LOADSLOT, dst, obj, offset)
STORESLOT = 61    # (STORESLOT, obj, offset, src)

# Environment (escaping locals; name-keyed, walks the home chain)
ENV_LOAD = 70     # (ENV_LOAD, dst, name)
ENV_STORE = 71    # (ENV_STORE, name, src)

# Closures
MAKE_BLOCK = 80   # (MAKE_BLOCK, dst, template_index)

# Calls
SEND = 90         # (SEND, dst, selector_index, recv, args_tuple, site)
PRIMCALL = 91     # (PRIMCALL, dst, prim_index, recv, args_tuple, err, target|-1)

# Control
JUMP = 100        # (JUMP, target)
RETURN = 101      # (RETURN, src)
NLR = 102         # (NLR, src)
ERROR = 103       # (ERROR, prim_name, code)

NAMES = {
    value: name
    for name, value in list(globals().items())
    if isinstance(value, int) and not name.startswith("_")
}


def op_name(op: int) -> str:
    return NAMES.get(op, f"op{op}")


# ---------------------------------------------------------------------------
# Encoding metadata (used by the predecoder in :mod:`.dispatch`)
# ---------------------------------------------------------------------------

#: operand position holding a jump target, per branching opcode.  The
#: target is an instruction index into the same code object's stream.
BRANCH_OPERANDS = {
    CMP_LT: 3, CMP_LE: 3, CMP_GT: 3, CMP_GE: 3, CMP_EQ: 3, CMP_NE: 3,
    ADD_OV: 5, SUB_OV: 5, MUL_OV: 5, DIV_OV: 5, MOD_OV: 5,
    TYPETEST: 3,
    BOUNDS: 3,
    JUMP: 1,
    PRIMCALL: 6,   # failure target, or -1 when the primitive cannot fail
}

#: opcodes that never continue to the textually-next instruction; an
#: instruction stream position after one of these is only reachable as a
#: branch target.
NO_FALLTHROUGH = frozenset({JUMP, RETURN, NLR, ERROR})

"""Lowering the control-flow graph to register bytecode.

The layout is trace-based: each node's port-0 (common/true/success)
successor is placed immediately after it whenever possible, so the hot
path through a compiled loop is a straight run of instructions with all
failure handling out of line — mirroring how the SELF compiler laid out
SPARC code.

Escaping locals (captured by materialized blocks) do not get registers:
reads and writes go through the frame's named environment, with scratch
registers inserted around each instruction that touches them.
"""

from __future__ import annotations

from typing import Optional

from ..compiler.result import CompiledGraph
from ..objects.errors import CodegenError
from ..robustness import faults
from ..ir import nodes as ir
from . import opcodes as op
from .code import Code, InlineCacheSite
from .cost import CostModel
from .dispatch import predecode

_ARITH_OPS = {"add": op.ADD, "sub": op.SUB, "mul": op.MUL, "div": op.DIV, "mod": op.MOD}
_ARITH_OV_OPS = {
    "add": op.ADD_OV, "sub": op.SUB_OV, "mul": op.MUL_OV,
    "div": op.DIV_OV, "mod": op.MOD_OV,
}
_CMP_OPS = {
    "<": op.CMP_LT, "<=": op.CMP_LE, ">": op.CMP_GT,
    ">=": op.CMP_GE, "==": op.CMP_EQ, "!=": op.CMP_NE,
}


def generate(graph: CompiledGraph, model: CostModel) -> Code:
    return _Codegen(graph, model).run()


class _Codegen:
    def __init__(self, graph: CompiledGraph, model: CostModel) -> None:
        self.graph = graph
        self.model = model
        self.regs: dict[str, int] = {}
        self.escaping = graph.escaping  # flat var -> env key
        self.insns: list[list] = []
        self.labels: dict[int, int] = {}  # id(node) -> insn index
        self.fixups: list[tuple[int, int, ir.IRNode]] = []
        self.consts: list = []
        self.const_index: dict = {}
        self.ic_sites: list[InlineCacheSite] = []
        self._scratch = 0
        self.env_keys = frozenset(graph.escaping.values())

    # -- registers and constants --------------------------------------------------

    def reg(self, var: str) -> int:
        index = self.regs.get(var)
        if index is None:
            index = len(self.regs)
            self.regs[var] = index
        return index

    def scratch_reg(self) -> int:
        self._scratch += 1
        return self.reg(f"%scratch{self._scratch}")

    def const(self, value) -> int:
        key = (type(value).__name__, id(value))
        index = self.const_index.get(key)
        if index is None:
            index = len(self.consts)
            self.consts.append(value)
            self.const_index[key] = index
        return index

    # -- escaping-variable plumbing ----------------------------------------------

    def read(self, var: str) -> int:
        """Register holding ``var``'s value (loading from env if needed)."""
        key = self.escaping.get(var)
        if key is None:
            return self.reg(var)
        scratch = self.scratch_reg()
        self.insns.append([op.ENV_LOAD, scratch, key])
        return scratch

    def write(self, var: str, emit_op) -> None:
        """Emit ``emit_op(dst_reg)``; spill to env if ``var`` escapes."""
        key = self.escaping.get(var)
        if key is None:
            emit_op(self.reg(var))
            return
        scratch = self.scratch_reg()
        emit_op(scratch)
        self.insns.append([op.ENV_STORE, key, scratch])

    # -- driver ---------------------------------------------------------------------

    def run(self) -> Code:
        # Prologue: arguments that escape into blocks live in the frame
        # environment; spill them from their incoming registers first.
        for var in self.graph.arg_vars:
            key = self.escaping.get(var)
            if key is not None:
                self.insns.append([op.ENV_STORE, key, self.reg(var)])
        order = self._layout_order()
        for index, node in enumerate(order):
            self.labels[id(node)] = len(self.insns)
            next_node = order[index + 1] if index + 1 < len(order) else None
            self._emit_node(node, next_node)
        self._apply_fixups()
        if faults.ENABLED and faults.hit(faults.SITE_VM_CODEGEN):
            # Corrupt mode: a jump to a nonexistent instruction.  The
            # predecode branch-target range check below must reject the
            # stream.
            self.insns.append([op.JUMP, len(self.insns) + 1])
        size = sum(self.model.instruction_bytes(i[0]) for i in self.insns)
        size += self.model.method_overhead_bytes
        insns = [tuple(i) for i in self.insns]
        self_reg = self.reg(self.graph.self_var)
        arg_regs = tuple(self.reg(v) for v in self.graph.arg_vars)
        # The predecode pass: resolve pools and bake static cycles, one
        # threaded slot per instruction (sizing above reads ``insns``).
        threaded = predecode(insns, self.consts, self.ic_sites, self.model)
        return Code(
            name=self.graph.selector or "<doit>",
            insns=insns,
            consts=self.consts,
            reg_count=len(self.regs),
            self_reg=self_reg,
            arg_regs=arg_regs,
            env_keys=self.env_keys,
            ic_sites=self.ic_sites,
            size_bytes=size,
            is_block=self.graph.is_block,
            graph_stats=self.graph.stats,
            compile_stats=self.graph.compile_stats,
            config_name=self.graph.config_name,
            threaded=threaded,
            map_dependent=self.graph.map_dependent,
        )

    def _layout_order(self) -> list[ir.IRNode]:
        order: list[ir.IRNode] = []
        visited: set[int] = set()
        work: list[ir.IRNode] = [self.graph.start]
        while work:
            node: Optional[ir.IRNode] = work.pop()
            while node is not None and id(node) not in visited:
                visited.add(id(node))
                order.append(node)
                successors = node.successors
                if len(successors) == 2 and successors[1] is not None:
                    work.append(successors[1])
                node = successors[0] if successors else None
        return order

    def _jump_to(self, target: ir.IRNode, next_node: Optional[ir.IRNode]) -> None:
        if target is next_node:
            return
        index = len(self.insns)
        self.insns.append([op.JUMP, -1])
        self.fixups.append((index, 1, target))

    def _branch_operand(self, index: int, pos: int, target: ir.IRNode) -> None:
        self.fixups.append((index, pos, target))

    def _apply_fixups(self) -> None:
        for index, pos, target in self.fixups:
            label = self.labels.get(id(target))
            if label is None:
                raise CodegenError(f"jump to un-emitted node {target!r}")
            self.insns[index][pos] = label

    # -- per-node emission --------------------------------------------------------

    def _emit_node(self, node: ir.IRNode, next_node: Optional[ir.IRNode]) -> None:
        t = type(node)
        if t in (ir.StartNode, ir.MergeNode, ir.LoopHeadNode):
            pass  # pure labels
        elif t is ir.ConstNode:
            kidx = self.const(node.value)
            self.write(node.dst, lambda dst: self.insns.append([op.LOADK, dst, kidx]))
        elif t is ir.MoveNode:
            src = self.read(node.src)
            self.write(node.dst, lambda dst: self.insns.append([op.MOVE, dst, src]))
        elif t is ir.ArithNode:
            x = self.read(node.x)
            y = self.read(node.y)
            opcode = _ARITH_OPS[node.op]
            self.write(node.dst, lambda dst: self.insns.append([opcode, dst, x, y]))
        elif t is ir.ArithOvNode:
            self._emit_arith_ov(node)
        elif t is ir.CompareBranchNode:
            x = self.read(node.x)
            y = self.read(node.y)
            index = len(self.insns)
            self.insns.append([_CMP_OPS[node.op], x, y, -1])
            self._branch_operand(index, 3, node.successors[1])
        elif t is ir.TypeTestNode:
            var = self.read(node.var)
            index = len(self.insns)
            self.insns.append([op.TYPETEST, var, node.map, -1])
            self._branch_operand(index, 3, node.successors[1])
        elif t is ir.BoundsCheckNode:
            arr = self.read(node.arr)
            idx = self.read(node.idx)
            index = len(self.insns)
            self.insns.append([op.BOUNDS, arr, idx, -1])
            self._branch_operand(index, 3, node.successors[1])
        elif t is ir.ArrayLoadNode:
            arr = self.read(node.arr)
            idx = self.read(node.idx)
            self.write(node.dst, lambda dst: self.insns.append([op.ALOAD, dst, arr, idx]))
        elif t is ir.ArrayStoreNode:
            arr = self.read(node.arr)
            idx = self.read(node.idx)
            src = self.read(node.src)
            self.insns.append([op.ASTORE, arr, idx, src])
        elif t is ir.ArrayLengthNode:
            arr = self.read(node.arr)
            self.write(node.dst, lambda dst: self.insns.append([op.ALEN, dst, arr]))
        elif t is ir.LoadSlotNode:
            obj = self.read(node.obj)
            self.write(
                node.dst,
                lambda dst: self.insns.append([op.LOADSLOT, dst, obj, node.offset]),
            )
        elif t is ir.StoreSlotNode:
            obj = self.read(node.obj)
            src = self.read(node.src)
            self.insns.append([op.STORESLOT, obj, node.offset, src])
        elif t is ir.EnvLoadNode:
            self.write(
                node.dst,
                lambda dst: self.insns.append([op.ENV_LOAD, dst, node.name]),
            )
        elif t is ir.EnvStoreNode:
            src = self.read(node.src)
            self.insns.append([op.ENV_STORE, node.name, src])
        elif t is ir.MakeBlockNode:
            kidx = self.const((node.block, node.template))
            self_reg = self.read(node.self_var)
            self.write(
                node.dst,
                lambda dst: self.insns.append([op.MAKE_BLOCK, dst, kidx, self_reg]),
            )
        elif t is ir.SendNode:
            recv = self.read(node.recv)
            args = tuple(self.read(a) for a in node.args)
            site = len(self.ic_sites)
            self.ic_sites.append(InlineCacheSite(node.selector))
            self.write(
                node.dst,
                lambda dst: self.insns.append(
                    [op.SEND, dst, node.selector, recv, args, site]
                ),
            )
        elif t is ir.PrimCallNode:
            self._emit_prim_call(node)
        elif t is ir.ReturnNode:
            src = self.read(node.src)
            self.insns.append([op.RETURN, src])
            return  # terminal: no fallthrough
        elif t is ir.NlrReturnNode:
            src = self.read(node.src)
            self.insns.append([op.NLR, src])
            return
        elif t is ir.ErrorNode:
            if node.code.startswith("%"):
                err = self.read(node.code)
                self.insns.append([op.ERROR, node.primitive, None, err])
            else:
                self.insns.append([op.ERROR, node.primitive, node.code, -1])
            return
        else:
            raise CodegenError(f"cannot lower {node!r}")
        if node.successors:
            self._jump_to(node.successors[0], next_node)

    def _emit_arith_ov(self, node: ir.ArithOvNode) -> None:
        x = self.read(node.x)
        y = self.read(node.y)
        opcode = _ARITH_OV_OPS[node.op]
        err = self.reg(node.err_dst) if node.err_dst else self.reg("%err")
        if node.dst in self.escaping:
            scratch = self.scratch_reg()
            index = len(self.insns)
            self.insns.append([opcode, scratch, x, y, err, -1])
            self._branch_operand(index, 5, node.successors[1])
            self.insns.append([op.ENV_STORE, self.escaping[node.dst], scratch])
        else:
            index = len(self.insns)
            self.insns.append([opcode, self.reg(node.dst), x, y, err, -1])
            self._branch_operand(index, 5, node.successors[1])

    def _emit_prim_call(self, node: ir.PrimCallNode) -> None:
        from ..primitives.registry import lookup_primitive

        primitive = lookup_primitive(node.selector)
        if primitive is None:
            raise CodegenError(f"unknown primitive {node.selector!r}")
        recv = self.read(node.recv)
        args = tuple(self.read(a) for a in node.args)
        err = self.reg(node.err_dst) if node.err_dst else -1
        if node.has_failure_port:
            index = len(self.insns)
            self.write(
                node.dst,
                lambda dst: self.insns.append(
                    [op.PRIMCALL, dst, primitive, recv, args, err, -1]
                ),
            )
            # The branch operand position depends on whether a spill was
            # inserted after the PRIMCALL; find the PRIMCALL instruction.
            for i in range(len(self.insns) - 1, -1, -1):
                if self.insns[i][0] == op.PRIMCALL:
                    self._branch_operand(i, 6, node.successors[1])
                    break
        else:
            self.write(
                node.dst,
                lambda dst: self.insns.append(
                    [op.PRIMCALL, dst, primitive, recv, args, err, -1]
                ),
            )

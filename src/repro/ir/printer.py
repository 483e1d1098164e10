"""Textual IR printer (MLIR-flavored syntax).

Custom assembly forms are provided for the structural and frequently
read ops (functions, loops, memory access, arithmetic); everything else
falls back to the quoted generic form:

    %0 = "dialect.op"(%a, %b) {attr = value} : (t0, t1) -> (r0)
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .affine_map import AffineMap, _pretty_expr
from .attributes import Attribute, UnitAttr
from .core import Block, Operation, OpTable
from .values import Value


class _Namer:
    """Assigns stable textual names to SSA values and blocks."""

    def __init__(self):
        self._value_names: Dict[int, str] = {}
        self._block_names: Dict[int, str] = {}
        self._next_value = 0
        self._next_block = 0

    def name_value(self, value: Value, preferred: Optional[str] = None) -> str:
        key = id(value)
        if key not in self._value_names:
            if preferred is not None:
                self._value_names[key] = f"%{preferred}"
            else:
                self._value_names[key] = f"%{self._next_value}"
                self._next_value += 1
        return self._value_names[key]

    def name_block(self, block: Block) -> str:
        key = id(block)
        if key not in self._block_names:
            self._block_names[key] = f"^bb{self._next_block}"
            self._next_block += 1
        return self._block_names[key]

    def __call__(self, value: Value) -> str:
        return self.name_value(value)


def render_access_exprs(
    map_: AffineMap, operand_names: List[str]
) -> str:
    """Render map results with dims replaced by operand names:
    ``[%i * 2 + 1, %j]``."""
    rendered = []
    for expr in map_.results:
        text = _pretty_expr(expr)
        # Replace longest dim names first so d10 is not clobbered by d1.
        for pos in sorted(range(map_.num_dims), reverse=True):
            text = text.replace(f"d{pos}", operand_names[pos])
        rendered.append(text)
    return "[" + ", ".join(rendered) + "]"


def _attr_text(attr: Attribute) -> str:
    return str(attr)


def _attr_dict_text(op: Operation, skip: tuple = ()) -> str:
    attrs = op.attributes
    keys = [k for k in attrs if k not in skip]
    if not keys:
        return ""
    body = ", ".join(
        k if isinstance(attrs[k], UnitAttr) else f"{k} = {_attr_text(attrs[k])}"
        for k in sorted(keys)
    )
    return " {" + body + "}"


class Printer:
    def __init__(self, elide_empty_terminators: bool = True):
        self.lines: List[str] = []
        self.indent = 0
        self.namer = _Namer()
        self.elide_empty_terminators = elide_empty_terminators

    def emit(self, text: str) -> None:
        self.lines.append("  " * self.indent + text)

    def result(self) -> str:
        return "\n".join(self.lines) + "\n"

    # ------------------------------------------------------------------

    def print_operation(self, op: Operation) -> None:
        handler = _PRINTERS.lookup(type(op))
        if handler is not None:
            handler(self, op)
        else:
            self._print_generic(op)

    def _results_prefix(self, op: Operation) -> str:
        if not op.results:
            return ""
        names = ", ".join(self.namer(r) for r in op.results)
        return f"{names} = "

    def _print_generic(self, op: Operation) -> None:
        operands = ", ".join(self.namer(v) for v in op.operands)
        succ = ""
        if op.successors:
            succ = "[" + ", ".join(
                self.namer.name_block(b) for b in op.successors
            ) + "]"
        attrs = _attr_dict_text(op)
        in_types = ", ".join(str(v.type) for v in op.operands)
        out_types = ", ".join(str(r.type) for r in op.results)
        sig = f" : ({in_types}) -> ({out_types})"
        head = f'{self._results_prefix(op)}"{op.name}"({operands}){succ}{attrs}{sig}'
        if not op.regions:
            self.emit(head)
            return
        self.emit(head + " (")
        for region in op.regions:
            self._print_region_blocks(region.blocks)
        self.emit(")")

    def _print_region_blocks(self, blocks, skip_first_label: bool = False) -> None:
        self.indent += 1
        for i, block in enumerate(blocks):
            if i == 0 and skip_first_label:
                self._print_block_body(block)
                continue
            if i > 0 or block.arguments:
                args = ", ".join(
                    f"{self.namer(a)}: {a.type}" for a in block.arguments
                )
                label = self.namer.name_block(block)
                self.emit(f"{label}({args}):" if args else f"{label}:")
            self._print_block_body(block)
        self.indent -= 1

    def _print_block_body(self, block: Block) -> None:
        for op in block.operations:
            if (
                self.elide_empty_terminators
                and op.IS_TERMINATOR
                and op.name in ("affine.yield", "scf.yield")
                and op.num_operands == 0
            ):
                continue
            self.print_operation(op)

    def print_single_block_region(self, block: Block) -> None:
        self.indent += 1
        self._print_block_body(block)
        self.indent -= 1


# ----------------------------------------------------------------------
# Custom assembly forms
# ----------------------------------------------------------------------


def _print_module(printer: Printer, op: Operation) -> None:
    printer.emit("module {")
    printer.print_single_block_region(op.body)
    printer.emit("}")


def _print_func(printer: Printer, op: Operation) -> None:
    name = op.attributes["sym_name"].value
    args = ", ".join(
        f"{printer.namer.name_value(a, preferred=f'arg{i}')}: {a.type}"
        for i, a in enumerate(op.entry_block.arguments)
    )
    results = op.attributes["function_type"].value.results
    res = ""
    if results:
        res = " -> (" + ", ".join(str(t) for t in results) + ")"
    printer.emit(f"func @{name}({args}){res} {{")
    blocks = op.regions[0].blocks
    if len(blocks) == 1:
        printer.print_single_block_region(blocks[0])
    else:
        printer._print_region_blocks(blocks, skip_first_label=True)
    printer.emit("}")


def _print_return(printer: Printer, op: Operation) -> None:
    if op.num_operands == 0:
        printer.emit("return")
    else:
        names = ", ".join(printer.namer(v) for v in op.operands)
        types = ", ".join(str(v.type) for v in op.operands)
        printer.emit(f"return {names} : {types}")


def _print_constant(printer: Printer, op: Operation) -> None:
    value = op.attributes["value"]
    printer.emit(
        f"{printer._results_prefix(op)}std.constant {value} : "
        f"{op.results[0].type}"
    )


def _print_binary_arith(printer: Printer, op: Operation) -> None:
    lhs, rhs = op.operands
    printer.emit(
        f"{printer._results_prefix(op)}{op.name} "
        f"{printer.namer(lhs)}, {printer.namer(rhs)} : {op.results[0].type}"
    )


def _print_cmpi(printer: Printer, op: Operation) -> None:
    lhs, rhs = op.operands
    pred = op.attributes["predicate"].value
    printer.emit(
        f"{printer._results_prefix(op)}{op.name} \"{pred}\", "
        f"{printer.namer(lhs)}, {printer.namer(rhs)} : {lhs.type}"
    )


def _print_negf(printer: Printer, op: Operation) -> None:
    printer.emit(
        f"{printer._results_prefix(op)}std.negf "
        f"{printer.namer(op.operand(0))} : {op.results[0].type}"
    )


def _bound_text(
    printer: Printer, map_: AffineMap, operands: List[Value], kind: str = ""
) -> str:
    if map_.num_results == 1 and map_.results[0].is_constant():
        return str(map_.results[0].evaluate((), ()))
    if (
        map_.num_results == 1
        and map_.num_dims == 1
        and map_.is_identity()
        and len(operands) == 1
    ):
        return printer.namer(operands[0])
    names = [printer.namer(v) for v in operands]
    prefix = f"{kind} " if kind and map_.num_results > 1 else ""
    return f"{prefix}affine_map<{map_}>({', '.join(names)})"


def _print_affine_for(printer: Printer, op) -> None:
    iv = printer.namer(op.induction_var)
    lb = _bound_text(printer, op.lower_bound_map, op.lb_operands, "max")
    ub = _bound_text(printer, op.upper_bound_map, op.ub_operands, "min")
    step = f" step {op.step}" if op.step != 1 else ""
    printer.emit(f"affine.for {iv} = {lb} to {ub}{step} {{")
    printer.print_single_block_region(op.body)
    printer.emit("}" + _attr_dict_text(op, skip=op.STRUCTURAL_ATTRS))


def _print_affine_load(printer: Printer, op) -> None:
    names = [printer.namer(v) for v in op.indices]
    access = render_access_exprs(op.map, names)
    printer.emit(
        f"{printer._results_prefix(op)}affine.load "
        f"{printer.namer(op.memref)}{access} : {op.memref.type}"
    )


def _print_affine_store(printer: Printer, op) -> None:
    names = [printer.namer(v) for v in op.indices]
    access = render_access_exprs(op.map, names)
    printer.emit(
        f"affine.store {printer.namer(op.value)}, "
        f"{printer.namer(op.memref)}{access} : {op.memref.type}"
    )


def _print_affine_apply(printer: Printer, op) -> None:
    names = ", ".join(printer.namer(v) for v in op.operands)
    printer.emit(
        f"{printer._results_prefix(op)}affine.apply "
        f"affine_map<{op.map}>({names})"
    )


def _print_triple(printer: Printer, op: Operation) -> None:
    names = ", ".join(printer.namer(v) for v in op.operands)
    attrs = _attr_dict_text(op)
    types = ", ".join(str(v.type) for v in op.operands)
    printer.emit(f"{op.name}({names}){attrs} : ({types})")


def _print_scf_for(printer: Printer, op) -> None:
    iv = printer.namer(op.induction_var)
    printer.emit(
        f"scf.for {iv} = {printer.namer(op.lower_bound)} to "
        f"{printer.namer(op.upper_bound)} step {printer.namer(op.step)} {{"
    )
    printer.print_single_block_region(op.body)
    printer.emit("}")


def _print_scf_if(printer: Printer, op) -> None:
    printer.emit(f"scf.if {printer.namer(op.condition)} {{")
    printer.print_single_block_region(op.then_block)
    if len(op.regions) > 1:
        printer.emit("} else {")
        printer.print_single_block_region(op.else_block)
    printer.emit("}")


def _print_generic_linalg(printer: Printer, op) -> None:
    ins = ", ".join(printer.namer(v) for v in op.inputs)
    outs = ", ".join(printer.namer(v) for v in op.outputs)
    maps = ", ".join(f"affine_map<{m}>" for m in op.indexing_maps)
    iters = ", ".join(f'"{t}"' for t in op.iterator_types)
    printer.emit(
        f"linalg.generic {{indexing_maps = [{maps}], "
        f"iterator_types = [{iters}]}} ins({ins}) outs({outs}) {{"
    )
    printer.indent += 1
    args = ", ".join(
        f"{printer.namer(a)}: {a.type}" for a in op.body.arguments
    )
    printer.emit(f"^bb0({args}):")
    printer._print_block_body(op.body)
    printer.indent -= 1
    printer.emit("}")


def _print_linalg_yield(printer: Printer, op: Operation) -> None:
    names = ", ".join(printer.namer(v) for v in op.operands)
    types = ", ".join(str(v.type) for v in op.operands)
    printer.emit(f"linalg.yield {names} : {types}")


def _print_branch(printer: Printer, op) -> None:
    dest = printer.namer.name_block(op.successors[0])
    if op.num_operands:
        args = ", ".join(printer.namer(v) for v in op.operands)
        printer.emit(f"llvm.br {dest}({args})")
    else:
        printer.emit(f"llvm.br {dest}")


def _print_cond_branch(printer: Printer, op) -> None:
    printer.emit(
        f"llvm.cond_br {printer.namer(op.condition)}, "
        f"{printer.namer.name_block(op.true_dest)}, "
        f"{printer.namer.name_block(op.false_dest)}"
    )


def _print_call_like(
    printer: Printer, op, callee: str, attrs: str = ""
) -> None:
    names = ", ".join(printer.namer(v) for v in op.operands)
    in_types = ", ".join(str(v.type) for v in op.operands)
    out_types = ", ".join(str(r.type) for r in op.results)
    printer.emit(
        f"{printer._results_prefix(op)}{op.name} @{callee}({names}){attrs} : "
        f"({in_types}) -> ({out_types})"
    )


def _print_transform_sequence(printer: Printer, op) -> None:
    printer.emit("transform.sequence {")
    printer.indent += 1
    for step in op.steps():  # the terminator is re-added by the parser
        printer.print_operation(step)
    printer.indent -= 1
    printer.emit("}")


def _print_transform_match(printer: Printer, op) -> None:
    printer.emit(f"{printer._results_prefix(op)}transform.match")


def _print_transform_step(printer: Printer, op) -> None:
    printer.emit(
        f"{printer._results_prefix(op)}{op.name} "
        f"{printer.namer(op.operand(0))}{_attr_dict_text(op)}"
    )


def _printer_rows():
    from ..dialects import affine, linalg, llvm, scf, std, transform
    from .builtin import CallOp, FuncOp, ModuleOp, ReturnOp

    return {
        ModuleOp: _print_module,
        FuncOp: _print_func,
        ReturnOp: _print_return,
        CallOp: lambda p, op: _print_call_like(p, op, op.callee),
        llvm.CallOp: lambda p, op: _print_call_like(
            p, op, op.callee, _attr_dict_text(op, ("callee",))
        ),
        std.ConstantOp: _print_constant,
        std.BinaryArithOp: _print_binary_arith,
        std.CmpIOp: _print_cmpi,
        std.CmpFOp: _print_cmpi,
        std.NegFOp: _print_negf,
        affine.AffineForOp: _print_affine_for,
        affine.AffineLoadOp: _print_affine_load,
        affine.AffineStoreOp: _print_affine_store,
        affine.AffineApplyOp: _print_affine_apply,
        scf.ForOp: _print_scf_for,
        scf.IfOp: _print_scf_if,
        linalg.LinalgStructuredOp: _print_triple,
        linalg.ReshapeOp: _print_triple,
        linalg.GenericOp: _print_generic_linalg,
        linalg.LinalgYieldOp: _print_linalg_yield,
        llvm.BrOp: _print_branch,
        llvm.CondBrOp: _print_cond_branch,
        transform.SequenceOp: _print_transform_sequence,
        transform.MatchOp: _print_transform_match,
        transform.TransformStepOp: _print_transform_step,
    }


#: Custom assembly forms; every other op prints in the generic form.
_PRINTERS = OpTable(_printer_rows)


def print_module(op: Operation) -> str:
    """Print any operation (module, function, or single op) to text."""
    printer = Printer()
    printer.print_operation(op)
    return printer.result()


def print_op_signature(op: Operation) -> str:
    """One-line summary used in reprs and diagnostics."""
    operand_types = ", ".join(str(v.type) for v in op.operands)
    result_types = ", ".join(str(r.type) for r in op.results)
    return f"{op.name}({operand_types}) -> ({result_types})"

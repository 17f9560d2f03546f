"""Command-line front end.

Emits the certified tables, classifications, theory evaluations, bordism
invariants and the impossibility certificate, as text (unicode by
default, --ascii for portability) or as structured JSON documents of the
form {"command", "inputs", "result"}.

Exit codes follow the contract of ``errors``: 0 on success; 2 on a usage
error, or when an ``MtspecError`` refuses the input or the data file; 3
on any other exception, an internal failure that the shipped data never
triggers, reported in one line without a traceback.  The process entry
point also exits with 2 on an operating-system error, such as output
into a closed pipe.

Start-up is most of the cost of one call.  A call builds the parser of
the subcommand it names only (``parse_args``), and imports ``json`` only
for ``--format json``.  Each subcommand imports the modules it computes
with inside its handler: ``table`` loads only the data file's lookups in
``certified``, ``eval`` and ``bordism`` load ``tftlab``, and the other
four load ``classify``, of which only ``restrict`` and ``kernel`` go on
to load the exact numbers of ``exactnum``.  No subcommand loads the
consistency proof in ``spectra``, and the process skips the
interpreter's teardown (see ``entrypoint``).  The dispatcher reads
MTSPEC_DATA and resolves the data file once per call, and hands that
data to the handler, which passes it to every lookup it makes.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from .errors import MtspecError

if TYPE_CHECKING:
    from .abelian import FgAbGroup
    from .exactnum import ExactComplex

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_GREEK = {"psi": "ψ", "sigma": "σ", "tau": "τ", "rho": "ρ"}


# ---------------------------------------------------------------------------
# rendering


def render_gen(name: str, ascii_mode: bool) -> str:
    if ascii_mode:
        return name
    if name in _GREEK:
        return _GREEK[name]
    out = name.replace("W3", "W₃").replace("p1", "p₁")
    return re.sub(r"\^(\d+)", lambda m: m.group(1).translate(_SUPERSCRIPTS), out)


def render_group(group: FgAbGroup, ascii_mode: bool) -> str:
    if group.is_trivial:
        return "0"
    z, slash, plus = ("Z", "Z/", "+") if ascii_mode else ("ℤ", "ℤ/", "⊕")
    parts = [z] * group.free_rank + [slash + str(d) for d in group.torsion]
    return plus.join(parts)


def render_exact(value: ExactComplex, ascii_mode: bool) -> str:
    if value.is_rational:
        return str(value.rational_value())
    if ascii_mode:
        return str(value)
    zeta = "ζ%d" % value.root_order
    if value.root_power != 1:
        zeta += str(value.root_power).translate(_SUPERSCRIPTS)
    return zeta if value.mag == 1 else "%s·%s" % (value.mag, zeta)


def group_to_json(group: FgAbGroup) -> dict:
    return {"free_rank": group.free_rank, "torsion": list(group.torsion)}


def document_to_json(command: str, inputs: dict, result: dict) -> str:
    import json
    return json.dumps({"command": command, "inputs": inputs, "result": result},
                      ensure_ascii=False, indent=2)


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed arguments and the data in effect, and
# returns (inputs, result, text)


def cmd_table(args, data):
    from .certified import (SpectrumId, cohomology, equivalent_stored_cover,
                            homotopy_group, hz_self_cohomology)
    ascii_mode = args.ascii
    if args.kind == "hz":
        groups = [hz_self_cohomology(k, data) for k in range(7)]
        text = ",".join(render_group(g, ascii_mode) for g in groups)
        result = {"kind": "hz",
                  "rows": [{"k": k, "group": group_to_json(g)}
                           for k, g in enumerate(groups)]}
        return {"kind": "hz"}, result, text
    if args.d is None:
        raise MtspecError("table %s needs --d" % args.kind)
    if args.kind == "homotopy":
        groups = [homotopy_group(args.d, k, data) for k in range(args.d + 1)]
        text = ", ".join(render_group(g, ascii_mode) for g in groups)
        result = {"kind": "homotopy", "d": args.d,
                  "rows": [{"k": k, "group": group_to_json(g)}
                           for k, g in enumerate(groups)]}
        return {"kind": "homotopy", "d": args.d}, result, text
    spectrum = SpectrumId(args.d, args.cover)
    stored = SpectrumId(args.d, equivalent_stored_cover(args.d, args.cover, data))
    rows = []
    lines = ["H*(%s)" % spectrum.display(ascii_mode)]
    for k in range(6):
        entry = cohomology(stored, k, data)
        names = ", ".join(render_gen(n, ascii_mode) for n in entry.names)
        lines.append("k=%d: %s%s" % (k, render_group(entry.group, ascii_mode),
                                     " (%s)" % names if names else ""))
        rows.append({"k": k, "group": group_to_json(entry.group),
                     "generators": [[n, o] for n, o in entry.generators]})
    result = {"kind": "cohomology", "d": args.d, "cover": args.cover, "rows": rows}
    inputs = {"kind": "cohomology", "d": args.d, "cover": args.cover}
    return inputs, result, "\n".join(lines)


def _render_theory_group(tg, ascii_mode: bool) -> str:
    if tg.is_trivial:
        return "trivial"
    units = "C^x" if ascii_mode else "ℂˣ"
    if tg.unit_rank == 1:
        head = units
    elif ascii_mode:
        head = "(%s)^%d" % (units, tg.unit_rank)
    else:
        head = "(%s)%s" % (units, str(tg.unit_rank).translate(_SUPERSCRIPTS))
    basis = ", ".join(render_gen(n, ascii_mode) for n in tg.basis_names)
    out = "%s on (%s)" % (head, basis)
    if not tg.finite_part.is_trivial:
        out += " + %s" % render_group(tg.finite_part, ascii_mode)
    return out


def cmd_classify(args, data):
    from .classify import classify
    tg = classify(args.d, args.n, data)
    result = {"unit_rank": tg.unit_rank,
              "finite_part": group_to_json(tg.finite_part),
              "basis": list(tg.basis_names)}
    return ({"d": args.d, "n": args.n}, result,
            _render_theory_group(tg, args.ascii))


def cmd_restrict(args, data):
    from .classify import TheoryParams, restrict_theory
    from .exactnum import parse_exact
    params = TheoryParams.of(
        [parse_exact(p) for p in args.params.split(",")] if args.params else [])
    out = restrict_theory(args.d, args.n_from, args.n_to, params, data)
    text = (", ".join(render_exact(v, args.ascii) for v in out)
            if len(out) else "(no coordinates: the theory group is trivial)")
    result = {"params": [v.to_json() for v in out]}
    inputs = {"d": args.d, "from": args.n_from, "to": args.n_to,
              "params": args.params}
    return inputs, result, text


def _render_kernel(kernel, ascii_mode: bool) -> str:
    if kernel.group.is_trivial:
        return "trivial"
    head = render_group(kernel.group, ascii_mode)
    if not kernel.elements:
        return head
    order = kernel.group.order()
    exponent = kernel.group.torsion[-1]
    if order == exponent:  # cyclic: show a generating tuple
        generator = next(
            e for e in kernel.elements
            if math.lcm(*(x.root_order for x in e)) == exponent)
        powers = [x.root_power * (exponent // x.root_order) for x in generator]
        zeta = "zeta" if ascii_mode else "ζ"
        def power(p):
            if p == 0:
                return "1"
            if p == 1:
                return zeta
            return "%s^%d" % (zeta, p) if ascii_mode else zeta + str(p).translate(_SUPERSCRIPTS)
        tup = ", ".join(power(p) for p in powers)
        eq = "%s^%d=1" % (zeta, exponent) if ascii_mode else \
            zeta + str(exponent).translate(_SUPERSCRIPTS) + "=1"
        return "%s: (%s), %s" % (head, tup, eq)
    listing = "; ".join("(%s)" % ", ".join(render_exact(x, ascii_mode) for x in e)
                        for e in kernel.elements)
    return "%s: %s" % (head, listing)


def cmd_kernel(args, data):
    from .classify import restriction_kernel
    kernel = restriction_kernel(args.d, args.n_from, args.n_to, data)
    elements = None
    if kernel.elements is not None:
        elements = [[x.to_json() for x in e] for e in kernel.elements]
    result = {"group": group_to_json(kernel.group),
              "basis": list(kernel.basis_names), "elements": elements}
    inputs = {"d": args.d, "from": args.n_from, "to": args.n_to}
    return inputs, result, _render_kernel(kernel, args.ascii)


def cmd_eval(args, data):
    from . import tftlab
    from .exactnum import parse_exact
    catalog = tftlab.standard_manifolds(data)
    inputs = {"theory": args.theory}
    if args.theory == "four_d":
        if args.l1 is None or args.l2 is None or args.manifold is None:
            raise MtspecError("eval four_d needs --l1, --l2 and --manifold")
        manifold = tftlab.parse_manifold(args.manifold, catalog)
        value = tftlab.invertible_4d_value(parse_exact(args.l1),
                                           parse_exact(args.l2), manifold)
        inputs.update({"l1": args.l1, "l2": args.l2, "manifold": args.manifold})
    elif args.theory == "euler":
        if args.lam is None:
            raise MtspecError("eval euler needs --lam")
        if args.manifold is not None:
            manifold = tftlab.parse_manifold(args.manifold, catalog)
            if manifold.dim != 2:
                raise MtspecError("the Euler theory evaluates surfaces")
            bordism = tftlab.SurfaceBordism(manifold.euler, 0)
            inputs["manifold"] = args.manifold
        elif args.chi_total is not None:
            bordism = tftlab.SurfaceBordism(args.chi_total, args.chi_source or 0)
            inputs.update({"chi_total": args.chi_total,
                           "chi_source": args.chi_source or 0})
        else:
            raise MtspecError("eval euler needs --manifold or --chi-total")
        value = tftlab.euler_theory_value(parse_exact(args.lam), bordism)
        inputs["lam"] = args.lam
    else:  # frobenius
        if args.mu is None:
            raise MtspecError("eval frobenius needs --mu")
        if args.g is not None:
            value = tftlab.frobenius_closed_value(parse_exact(args.mu), args.g)
        elif args.manifold is not None:
            manifold = tftlab.parse_manifold(args.manifold, catalog)
            value = tftlab.frobenius_surface_value(parse_exact(args.mu), manifold)
            inputs["manifold"] = args.manifold
        else:
            raise MtspecError("eval frobenius needs --g or --manifold")
        inputs.update({"mu": args.mu, "g": args.g})
    return inputs, {"value": value.to_json()}, render_exact(value, args.ascii)


def cmd_bordism(args, data):
    from . import tftlab
    catalog = tftlab.standard_manifolds(data)
    total = tftlab.parse_formal_sum(args.sum, catalog)
    invariant = tftlab.vf_invariant(args.d, total)
    trivial = tftlab.is_vf_nullbordant(args.d, total)
    if len(invariant) == 0:
        shown = "0"
    elif len(invariant) == 1:
        shown = str(invariant[0])
    else:
        shown = "(%s)" % ", ".join(str(x) for x in invariant)
    text = "invariant: %s\nnull-bordant: %s" % (shown, "true" if trivial else "false")
    result = {"invariant": list(invariant), "null_bordant": trivial}
    return {"d": args.d, "sum": args.sum}, result, text


def cmd_gilmer_masbaum(args, data):
    from .classify import gilmer_masbaum_report
    report = gilmer_masbaum_report(data)
    rho = "rho" if args.ascii else "ρ"
    z = "Z" if args.ascii else "ℤ"

    def cls(multiple):
        return rho if multiple == 1 else "%d%s" % (multiple, rho)

    lines = ["%s-central extensions of the 3-dimensional oriented bordism "
             "category form %s, generated by %s"
             % (z, render_group(report.group, args.ascii), rho),
             "(%s)" % report.cover_note]
    for label, mult, induced in report.mcg_dictionary:
        lines.append("%s: %s -> %d times the mapping class group generator"
                     % (label, cls(mult), induced))
    lines.extend(report.argument)
    lines.append("fundamental extension: %s"
                 % ("realizable" if report.fundamental_realizable else "impossible"))
    result = {
        "group": group_to_json(report.group),
        "generator": report.generator,
        "classes": {label.split(" ")[0].lower(): {"rho_multiple": mult,
                                                  "mcg_class": induced}
                    for label, mult, induced in report.mcg_dictionary},
        "fundamental_realizable": report.fundamental_realizable,
        "walker_index4_possible": report.fundamental_realizable,
    }
    return {}, result, "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(parser):
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--ascii", action="store_true",
                        help="render plain ASCII instead of unicode math")


_D = (("--d",), {"type": int, "required": True})
_FROM = (("--from",), {"dest": "n_from", "type": int, "required": True})
_TO = (("--to",), {"dest": "n_to", "type": int, "required": True})

# each subcommand's help line and its own arguments, as (flags, options)
# pairs in the order of its usage line; _add_common adds --format and --ascii
_SUBCOMMANDS = {
    "table": ("print a certified table", [
        (("kind",), {"choices": ["cohomology", "homotopy", "hz"]}),
        (("--d",), {"type": int}),
        (("--cover",), {"type": int, "default": 0})]),
    "classify": ("the group of invertible theories", [
        _D, (("--n",), {"type": int, "required": True})]),
    "restrict": ("transport theory coordinates", [
        _D, _FROM, _TO, (("--params",), {"default": ""})]),
    "kernel": ("kernel of a restriction map", [_D, _FROM, _TO]),
    "eval": ("evaluate a concrete theory", [
        (("theory",), {"choices": ["euler", "frobenius", "four_d"]}),
        (("--lam",), {}), (("--mu",), {}), (("--l1",), {}), (("--l2",), {}),
        (("--manifold",), {}),
        (("--g",), {"type": int}),
        (("--chi-total",), {"type": int}),
        (("--chi-source",), {"type": int})]),
    "bordism": ("vector-field bordism invariant of a sum", [
        _D, (("--sum",), {"required": True})]),
    "gilmer-masbaum": ("print the impossibility certificate", []),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone."""
    parser = argparse.ArgumentParser(
        prog="mtspec",
        description="Exact tables, classifications and certificates for "
                    "invertible topological field theories in dimensions <= 4.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command else _SUBCOMMANDS:
        help_text, arguments = _SUBCOMMANDS[name]
        subparser = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            subparser.add_argument(*flags, **options)
        _add_common(subparser)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse argv (sys.argv[1:] when None) as the full parser does.

    Only the subcommand that the first argument names gets a parser.  What
    the top-level parser reports, whose usage lists every subcommand, goes
    through the full parser: --help, a missing or unknown subcommand, and
    an argument that the subcommand does not take.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        args, extras = build_parser(argv[0]).parse_known_args(argv)
        if not extras:
            return args
    return build_parser().parse_args(argv)


_HANDLERS = {
    "table": cmd_table,
    "classify": cmd_classify,
    "restrict": cmd_restrict,
    "kernel": cmd_kernel,
    "eval": cmd_eval,
    "bordism": cmd_bordism,
    "gilmer-masbaum": cmd_gilmer_masbaum,
}


def main(argv=None) -> int:
    # Python converts at most 4300 digits between integers and text.  The
    # integers read here are bounded by the length of the arguments and
    # those computed by exactnum's bounds on powers, so that limit would
    # only turn exact answers into errors.  It is lifted for this call
    # only; Python 3.10.6 and older have no such limit.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        from .certified import load_data
        inputs, result, text = _HANDLERS[args.command](args, load_data())
    except MtspecError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError:
        raise
    except Exception as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return 3
    if args.format == "json":
        print(document_to_json(args.command, inputs, result))
    else:
        print(text)
    return 0


def entrypoint():
    """Run `main` as the whole of a one-shot process and leave with its code.

    The process ends with `os._exit` once stdout and stderr are flushed,
    which skips the interpreter's teardown: clearing the modules, a last
    full cyclic collection and the finalizers, none of which changes what
    the call prints.  The cyclic collector is off for the same reason: a
    call leaves a fixed amount of cyclic garbage (the argument parser),
    whatever the size of its input.  An operating-system error, such as
    writing into a pipe whose reader has gone, exits with 2 and one line
    on stderr instead of a traceback.  `main` itself is unchanged, so
    callers in process keep the usual semantics.
    """
    gc.disable()
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when its descriptor was closed at start-up
                stream.flush()
    except OSError as exc:
        code = 2
        try:
            print("error: %s" % exc, file=sys.stderr)
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    entrypoint()

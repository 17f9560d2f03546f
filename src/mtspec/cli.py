"""Command-line front end.

Each subcommand has a handler, which returns (inputs, result), and a
renderer, which builds the text (unicode, or --ascii) from the result
alone; ``--format json`` prints the document {"command", "inputs",
"result"} instead.  So the text shows nothing the document lacks but the
certificate's constant prose.

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
data to the handler, which passes it to every lookup it makes; ``eval``
and ``bordism`` read none, as the manifold catalog is code, but a bad
file is refused by every subcommand alike.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys

from .errors import MtspecError

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_GREEK = {"psi": "ψ", "sigma": "σ", "tau": "τ", "rho": "ρ"}


# ---------------------------------------------------------------------------
# rendering the parts of a result document


def _power(base: str, exponent: int, ascii_mode: bool) -> str:
    """base to the exponent, which is left out when it is 1."""
    if exponent == 1:
        return base
    if ascii_mode:
        return "%s^%d" % (base, exponent)
    return base + str(exponent).translate(_SUPERSCRIPTS)


def render_gen(name: str, ascii_mode: bool) -> str:
    if ascii_mode:
        return name
    if name in _GREEK:
        return _GREEK[name]
    out = name.replace("W3", "W₃").replace("p1", "p₁")
    return re.sub(r"\^(\d+)", lambda m: m.group(1).translate(_SUPERSCRIPTS), out)


def render_group(group: dict, ascii_mode: bool) -> str:
    """A group given as {"free_rank", "torsion"}."""
    if not (group["free_rank"] or group["torsion"]):
        return "0"
    z, slash, plus = ("Z", "Z/", "+") if ascii_mode else ("ℤ", "ℤ/", "⊕")
    parts = [z] * group["free_rank"] + [slash + str(d) for d in group["torsion"]]
    return plus.join(parts)


def _root(value: dict) -> tuple:
    """(order, power) of an exact value's root of unity; (1, 0) for none."""
    root = value.get("root_of_unity")
    return (root["order"], root["power"]) if root else (1, 0)


def render_exact(value: dict, ascii_mode: bool) -> str:
    """An exact value given as {"magnitude", "root_of_unity"?}; a root of
    order 2 is a minus sign."""
    magnitude = value["magnitude"]
    order, power = _root(value)
    if order <= 2:  # no root, or the root -1
        return ("-" if order == 2 else "") + magnitude
    zeta = _power(("zeta%d" if ascii_mode else "ζ%d") % order, power, ascii_mode)
    if magnitude == "1":
        return zeta
    return ("%s*%s" if ascii_mode else "%s·%s") % (magnitude, zeta)


def group_to_json(group) -> dict:
    return {"free_rank": group.free_rank, "torsion": list(group.torsion)}


def document_to_json(command: str, inputs: dict, result: dict) -> str:
    import json
    return json.dumps({"command": command, "inputs": inputs, "result": result},
                      ensure_ascii=False, indent=2)


# ---------------------------------------------------------------------------
# subcommands: each handler takes the parsed arguments and the data in
# effect and returns (inputs, result); its renderer takes the result and
# --ascii, and returns the text


# the options each kind of table reads; any other is refused, not ignored
_TABLE_OPTIONS = {"cohomology": ("d", "cover"), "homotopy": ("d",), "hz": ()}


def cmd_table(args, data):
    for dest in ("d", "cover"):
        if getattr(args, dest) is not None and dest not in _TABLE_OPTIONS[args.kind]:
            raise MtspecError("table %s does not take --%s" % (args.kind, dest))
    from .certified import (MAX_TABLE_DEGREE, SpectrumId, cohomology,
                            equivalent_stored_cover, homotopy_group, hz_self_cohomology)
    if args.kind == "hz":
        inputs = {"kind": "hz"}
        rows = [{"k": k, "group": group_to_json(hz_self_cohomology(k, data).group)}
                for k in range(MAX_TABLE_DEGREE + 2)]
    elif args.d is None:
        raise MtspecError("table %s needs --d" % args.kind)
    elif args.kind == "homotopy":
        inputs = {"kind": "homotopy", "d": args.d}
        rows = [{"k": k, "group": group_to_json(homotopy_group(args.d, k, data))}
                for k in range(args.d + 1)]
    else:
        cover = args.cover or 0
        inputs = {"kind": "cohomology", "d": args.d, "cover": cover}
        SpectrumId(args.d, cover)  # refuses --d and --cover out of range
        stored = SpectrumId(args.d, equivalent_stored_cover(args.d, cover, data))
        rows = []
        for k in range(MAX_TABLE_DEGREE + 1):
            entry = cohomology(stored, k, data)
            rows.append({"k": k, "group": group_to_json(entry.group),
                         "generators": [[n, o] for n, o in entry.generators]})
    return inputs, dict(inputs, rows=rows)


def _render_table(result: dict, ascii_mode: bool) -> str:
    groups = [render_group(row["group"], ascii_mode) for row in result["rows"]]
    if result["kind"] != "cohomology":
        return ("," if result["kind"] == "hz" else ", ").join(groups)
    from .certified import SpectrumId
    lines = ["H*(%s)" % SpectrumId(result["d"], result["cover"]).display(ascii_mode)]
    for row, group in zip(result["rows"], groups):
        names = ", ".join(render_gen(n, ascii_mode) for n, _ in row["generators"])
        lines.append("k=%d: %s%s" % (row["k"], group, " (%s)" % names if names else ""))
    return "\n".join(lines)


def cmd_classify(args, data):
    from .classify import classify
    tg = classify(args.d, args.n, data)
    return {"d": args.d, "n": args.n}, {"unit_rank": tg.unit_rank,
                                        "finite_part": group_to_json(tg.finite_part),
                                        "basis": list(tg.basis_names)}


def _render_theory_group(result: dict, ascii_mode: bool) -> str:
    rank, finite = result["unit_rank"], render_group(result["finite_part"], ascii_mode)
    if rank == 0 and finite == "0":
        return "trivial"
    units = "C^x" if ascii_mode else "ℂˣ"
    head = units if rank == 1 else _power("(%s)" % units, rank, ascii_mode)
    basis = ", ".join(render_gen(n, ascii_mode) for n in result["basis"])
    out = "%s on (%s)" % (head, basis)
    return out if finite == "0" else "%s + %s" % (out, finite)


def cmd_restrict(args, data):
    from .classify import TheoryParams, restrict_theory
    params = TheoryParams.of(args.params.split(",") if args.params else [])
    out = restrict_theory(args.d, args.n_from, args.n_to, params, data)
    inputs = {"d": args.d, "from": args.n_from, "to": args.n_to,
              "params": args.params}
    return inputs, {"params": [v.to_json() for v in out]}


def _render_restrict(result: dict, ascii_mode: bool) -> str:
    if not result["params"]:
        return "(no coordinates: the theory group is trivial)"
    return ", ".join(render_exact(v, ascii_mode) for v in result["params"])


def cmd_kernel(args, data):
    from .classify import restriction_kernel
    kernel = restriction_kernel(args.d, args.n_from, args.n_to, data)
    elements = (None if kernel.elements is None
                else [[x.to_json() for x in e] for e in kernel.elements])
    inputs = {"d": args.d, "from": args.n_from, "to": args.n_to}
    return inputs, {"group": group_to_json(kernel.group),
                    "basis": list(kernel.basis_names), "elements": elements}


def _render_kernel(result: dict, ascii_mode: bool) -> str:
    head, elements = render_group(result["group"], ascii_mode), result["elements"]
    if head == "0":
        return "trivial"
    if not elements:
        return head
    torsion = result["group"]["torsion"]
    exponent = torsion[-1]
    if math.prod(torsion) == exponent:  # cyclic: show a generating tuple
        generator = next(e for e in elements
                         if math.lcm(*(_root(x)[0] for x in e)) == exponent)
        zeta = "zeta" if ascii_mode else "ζ"
        tup = ", ".join(_power(zeta, power * (exponent // order), ascii_mode) if power
                        else "1" for order, power in map(_root, generator))
        return "%s: (%s), %s=1" % (head, tup, _power(zeta, exponent, ascii_mode))
    listing = "; ".join("(%s)" % ", ".join(render_exact(x, ascii_mode) for x in e)
                        for e in elements)
    return "%s: %s" % (head, listing)


# the options each theory of eval reads; any other is refused, not ignored
_EVAL_OPTIONS = {"four_d": ("l1", "l2", "manifold"), "frobenius": ("mu", "g", "manifold"),
                 "euler": ("lam", "manifold", "chi_total", "chi_source")}


def cmd_eval(args, data):
    # every theory reads --manifold; --g and the Euler characteristics stand in for one
    for dest in ("lam", "mu", "l1", "l2", "g", "chi_total", "chi_source"):
        if getattr(args, dest) is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if dest not in _EVAL_OPTIONS[args.theory]:
            raise MtspecError("eval %s does not take %s" % (args.theory, flag))
        if args.manifold is not None and dest in ("g", "chi_total", "chi_source"):
            raise MtspecError("eval %s takes --manifold or %s, not both" % (args.theory, flag))
    from . import tftlab
    from .exactnum import parse_exact
    catalog = tftlab.standard_manifolds()
    inputs = {"theory": args.theory}
    if args.theory == "four_d":
        if args.l1 is None or args.l2 is None or args.manifold is None:
            raise MtspecError("eval four_d needs --l1, --l2 and --manifold")
        manifold = tftlab.parse_formal_sum(args.manifold, catalog)
        value = tftlab.invertible_4d_value(parse_exact(args.l1),
                                           parse_exact(args.l2), manifold)
        inputs.update({"l1": args.l1, "l2": args.l2, "manifold": args.manifold})
    elif args.theory == "euler":
        if args.lam is None:
            raise MtspecError("eval euler needs --lam")
        if args.manifold is not None:
            manifold = tftlab.parse_formal_sum(args.manifold, catalog)
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
            manifold = tftlab.parse_formal_sum(args.manifold, catalog)
            value = tftlab.frobenius_surface_value(parse_exact(args.mu), manifold)
            inputs["manifold"] = args.manifold
        else:
            raise MtspecError("eval frobenius needs --g or --manifold")
        inputs.update({"mu": args.mu, "g": args.g})
    return inputs, {"value": value.to_json()}


def _render_eval(result: dict, ascii_mode: bool) -> str:
    return render_exact(result["value"], ascii_mode)


def cmd_bordism(args, data):
    from . import tftlab
    total = tftlab.parse_formal_sum(args.sum, tftlab.standard_manifolds())
    return {"d": args.d, "sum": args.sum}, {
        "invariant": list(tftlab.vf_invariant(args.d, total)),
        "null_bordant": tftlab.is_vf_nullbordant(args.d, total)}


def _render_bordism(result: dict, ascii_mode: bool) -> str:
    shown = ", ".join(str(x) for x in result["invariant"]) or "0"
    if len(result["invariant"]) > 1:
        shown = "(%s)" % shown
    return "invariant: %s\nnull-bordant: %s" % (
        shown, "true" if result["null_bordant"] else "false")


def cmd_gilmer_masbaum(args, data):
    from .classify import gilmer_masbaum_report
    report = gilmer_masbaum_report(data)
    return {}, {
        "group": group_to_json(report.group),
        "generator": report.generator,
        "classes": {key: {"rho_multiple": mult, "mcg_class": induced}
                    for key, mult, induced in report.mcg_dictionary},
        "fundamental_realizable": report.fundamental_realizable,
        "walker_index4_possible": report.fundamental_realizable,
    }


# the certificate's prose, which its document does not carry
_CLASS_LABELS = {"atiyah": "Atiyah (p1-structures)", "walker": "Walker (signature)",
                 "gilmer": "Gilmer (index-2 subcategory)"}
_ARGUMENT = (
    "every class n*rho induces the mapping class group extension 2n, which is always even",
    "the generating extension corresponds to the odd class 1, so no Z-central extension "
    "of the bordism category induces it",
    "in particular no index-4 subcategory of Walker's category exists")


def _render_gilmer_masbaum(result: dict, ascii_mode: bool) -> str:
    generator = render_gen(result["generator"], ascii_mode)
    lines = ["%s-central extensions of the 3-dimensional oriented bordism "
             "category form %s, generated by %s"
             % ("Z" if ascii_mode else "ℤ", render_group(result["group"], ascii_mode),
                generator),
             "(the second cover agrees with the stored first cover: no homotopy in degree 1)"]
    for key, cls in result["classes"].items():
        multiple = cls["rho_multiple"]
        lines.append("%s: %s -> %d times the mapping class group generator"
                     % (_CLASS_LABELS[key], generator if multiple == 1
                        else "%d%s" % (multiple, generator), cls["mcg_class"]))
    lines.extend(_ARGUMENT)
    lines.append("fundamental extension: %s"
                 % ("realizable" if result["fundamental_realizable"] else "impossible"))
    return "\n".join(lines)


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
        (("--cover",), {"type": int})]),
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


_HANDLERS = {"table": cmd_table, "classify": cmd_classify, "restrict": cmd_restrict,
             "kernel": cmd_kernel, "eval": cmd_eval, "bordism": cmd_bordism,
             "gilmer-masbaum": cmd_gilmer_masbaum}

# each subcommand's text, from its result and --ascii
_RENDERERS = {"table": _render_table, "classify": _render_theory_group,
              "restrict": _render_restrict, "kernel": _render_kernel, "eval": _render_eval,
              "bordism": _render_bordism, "gilmer-masbaum": _render_gilmer_masbaum}


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
        inputs, result = _HANDLERS[args.command](args, load_data())
        if args.format == "json":
            out = document_to_json(args.command, inputs, result)
        else:
            out = _RENDERERS[args.command](result, args.ascii)
    except MtspecError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError:
        raise
    except Exception as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return 3
    print(out)
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

"""Command-line surface wiring the library end to end.

Conventions, fixed across every subcommand:

* all configuration arrives via flags (no environment variables); the seed
  defaults to 0 and the library derives every random draw from it, one
  generator per trial, so identical invocations produce byte-identical
  reports;
* stdout carries the report as JSON lines — a meta line (command, version,
  config, checksums of any embedded records used) followed by one line per
  result — or an indented plain rendering under ``--format text``.  Each
  handler returns library values as they are; ``main`` alone renders them,
  a Fraction as a JSON number when integral and as ``"a/b"`` otherwise
  (``str`` gives the same digits in text);
* stderr carries a one-line human summary, plus ``{"error": ...}`` as JSON
  when the invocation itself is bad;
* exit status: 0 success/pass, 1 a verification ran and failed, 2 input
  error.  ``main`` is the one place that maps a rejection to exit 2: the
  library raises ``ValueError`` for an argument it rejects (a bad shape,
  array, point, index set or certificate), and ``main`` turns any
  ``ValueError`` into the ``{"error": ...}`` line.  Any other exception
  (``AssertionError``, ``RuntimeError``, ``ArithmeticError``) is an
  internal fault and propagates, save where a handler turns one into a
  rejection and says why (a ``1/0`` in an input file, a denominator that
  vanishes mod p).

Query commands (``hessian``, ``det``, ``rank``, ``degrees``, ``node``,
``critical``) report data and exit 0 unless the input is bad; checking
commands (``irreducible``, ``specialize``, ``duality``, ``verify-*``,
``identity-h36``) exit 1 when the checked property fails to hold.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__

# Each command imports the library modules it runs inside its handler, so
# a command loads only what it needs and ``import blockhess.cli`` loads none.


# ---------------------------------------------------------------------------
# small I/O helpers


def _load_json(path: str, parse, what: str):
    """``parse`` the JSON document at ``path``; each rejection names the file."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: arrays nested too deep
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{path} is not {what}: {exc}") from exc


def _point_entry(e):
    """One chart-point entry or ``node --T`` value, exactly: a JSON number,
    or a string holding an integer, ``"a/b"``, or a decimal with an optional
    exponent, read as ``Fraction(str(e))`` reads it.  The exponent is read
    before anything is expanded: neither numerator nor denominator may have
    more digits than ``int`` reads from a string (``sys.get_int_max_str_digits()``)."""
    from fractions import Fraction

    text = str(e)
    limit = sys.get_int_max_str_digits()
    too_long = f"chart-point entry {text!r} has more than {limit} digits"
    decimal = re.fullmatch(r"(.*)[eE]([-+]?\d+(?:_\d+)*)\s*", text)
    # Fraction builds 10**exponent before it reduces; past limit + len(text)
    # powers of ten the digits before the exponent cannot cancel enough of
    # them, so only a zero fits
    if limit and decimal and abs(int(decimal[2])) > limit + len(text):
        head = Fraction(decimal[1] + "e0")
        if head:
            raise ValueError(too_long)
        return head
    x = Fraction(text)
    if limit and max(abs(x.numerator), x.denominator) >= 10**limit:
        raise ValueError(too_long)
    return x


def _load_array(path: str):
    from .exterior import ExteriorArray

    return _load_json(path, ExteriorArray.from_json_dict, "a coefficient array")


def _parse_J(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse index set {text!r}: {exc}") from exc


def _parse_T(text: str):
    try:
        return _point_entry(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse T value {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (records, passed); ``main`` prints them

Handled = tuple[list[dict], bool]


def _need_kN(args) -> tuple[int, int]:
    if args.k is None or args.N is None:
        raise ValueError("--k and --N are required here")
    if not 1 <= args.k < args.N:
        raise ValueError(f"need 1 <= k < N, got k={args.k}, N={args.N}")
    return args.k, args.N


def _assemble(A, dual: bool):
    from .hessian import assemble, assemble_dual

    return assemble_dual(A) if dual else assemble(A)


def _cmd_hessian(args) -> Handled:
    from .hessian import coefficient_names, symbolic_coefficient_array
    from .ring import MultiPoly

    if args.input:
        if args.k is not None or args.N is not None:
            raise ValueError("--input and --k/--N are mutually exclusive")
        A = _load_array(args.input)
        names = None
    elif args.k is not None:
        k, N = _need_kN(args)
        A = symbolic_coefficient_array(k, N)
        names = coefficient_names(k, N)
    else:
        raise ValueError("provide --input FILE or --k/--N for the symbolic matrix")
    H = _assemble(A, args.dual)
    rec = {
        "k": H.k,
        "N": H.N,
        "side": H.k * (H.N - H.k),
        "dual": bool(args.dual),
        "structure_ok": H.is_structurally_valid(),
        "rows": [[e.to_str(names) if isinstance(e, MultiPoly) else e for e in row] for row in H.rows],
    }
    return [rec], True


def _cmd_det(args) -> Handled:
    from .hessian import det_exact, det_mod
    from .ring import is_prime

    A = _load_array(args.input)
    H = _assemble(A, args.dual)
    if args.mod is None:
        return [{"det": det_exact(H)}], True
    if not (1 < args.mod < 2**64 and is_prime(args.mod)):
        raise ValueError(f"--mod needs a prime below 2^64, got {args.mod}")
    try:
        return [{"det": det_mod(H, args.mod), "mod": args.mod}], True
    except ZeroDivisionError as exc:  # a denominator that vanishes mod p
        raise ValueError(str(exc)) from exc


def _cmd_rank(args) -> Handled:
    from .hessian import rank_report

    return [rank_report(_assemble(_load_array(args.input), args.dual))], True


def _cmd_degrees(args) -> Handled:
    from .degree import feasible_degrees

    k, N = _need_kN(args)
    return [{"total": k * (N - k), "degrees": list(feasible_degrees(k, N))}], True


def _cmd_irreducible(args) -> Handled:
    from .irreducibility import ensure, run_schedule, seeded_table

    if args.k is None:
        raise ValueError("--k is required here")
    if args.N_max is not None:
        if args.N is not None:
            raise ValueError("--N and --N-max are mutually exclusive")
        records = run_schedule(args.k, args.N_max)
    else:
        records = [ensure(seeded_table(), *_need_kN(args))]
    return records, all(r["status"] != "undecided" for r in records)


def _cmd_specialize(args) -> Handled:
    from .hessian import assemble, det_exact, specialize_embed

    A1, A2 = _load_array(args.inputs[0]), _load_array(args.inputs[1])
    H1, H2 = assemble(A1), assemble(A2)
    E = specialize_embed(H1, H2)
    d1, d2, de = det_exact(H1), det_exact(H2), det_exact(E)
    rec = {
        "k": E.k,
        "a": H1.N,
        "b": H2.N,
        "N": E.N,
        "det_first": d1,
        "det_second": d2,
        "det_embedded": de,
        "multiplicative": de == d1 * d2,
    }
    if args.full:
        rec["rows"] = E.rows
    return [rec], rec["multiplicative"]


def _cmd_duality(args) -> Handled:
    from .hessian import assemble_symbolic, duality_trials, dualize_layout

    k, N = _need_kN(args)
    records: list[dict] = []
    if args.symbolic:  # first, so the symbolic-variable cap fires before the side cap
        ok = dualize_layout(assemble_symbolic(k, N)).is_structurally_valid()
        records.append({"mode": "symbolic", "relabeled_as": [N - k, N], "structure_ok": ok})
    records += duality_trials(k, N, args.trials, args.seed)
    return records, all(r["structure_ok"] and r.get("equal", True) for r in records)


def _render_form(form, render) -> dict[str, str]:
    """A form keyed by multiindex, each coefficient as ``render`` prints it."""
    return {",".join(map(str, I)): render(c) for I, c in sorted(form.items())}


def _cmd_node(args) -> Handled:
    from .multiindex import NodeIndexSet
    from .node_cusp import NodePointSpec, build_x_J_T, defining_forms_at, extra_equations, limit_T0, render_monomial

    k, N = _need_kN(args)
    if args.J is None:
        raise ValueError("--J is required (comma-separated index set)")
    for flag in ("symbolic", "limits"):
        if getattr(args, flag) and args.T is not None:
            raise ValueError(f"--{flag} and --T are mutually exclusive")
    node = NodeIndexSet(k, N, _parse_J(args.J))
    if args.T is not None:
        frame = build_x_J_T(NodePointSpec(node, _parse_T(args.T)))
        rec = {
            "J": list(node.J),
            "T": args.T,
            "frame_rows": [list(row) for row in frame],
            "chart_point": [list(row[k:]) for row in frame],
            "meet_first": len(node.in_first),
        }
        return [rec], True
    spec = NodePointSpec(node, None)
    forms = defining_forms_at(spec)
    rec = {
        "J": list(node.J),
        "meet_first": len(node.in_first),
        "frame_rows": [[render_monomial(e) for e in row] for row in build_x_J_T(spec)],
        "base_forms": [_render_form(f, render_monomial) for f in forms["base_forms"]],
        "moving_forms": [{**m, "form": _render_form(m["form"], render_monomial)} for m in forms["moving_forms"]],
    }
    if len(node.in_first) == k - 2:
        rec["extra_equations"] = [_render_form(f, str) for f in extra_equations(node)]
    if not args.limits:
        return [rec], True
    try:
        lims = limit_T0(forms)
    except ValueError as exc:  # dependent limits: a finding, not bad input
        return [rec, {"limits_independent": False, "error": str(exc)}], False
    limits = {"limits_independent": True, "count": len(lims), "limits": [_render_form(f, str) for f in lims]}
    return [rec, limits], True


def _cmd_verify_certificates(args) -> Handled:
    from .certificates import CERTIFICATE_IDS, certificate_from_json_dict, load
    from .certificates import verify as verify_certificate

    if args.input:
        if args.id:
            raise ValueError("--id and --input are mutually exclusive")
        certs = [_load_json(args.input, certificate_from_json_dict, "a certificate")]
    else:
        certs = [load(cid) for cid in ([args.id] if args.id else CERTIFICATE_IDS)]
    records = [verify_certificate(c, completion_seed=args.seed) for c in certs]
    return records, all(r["pass"] for r in records)


def _cmd_verify_node(args) -> Handled:
    from .certificates import load
    from .certificates import verify as verify_certificate

    if not args.id:
        raise ValueError("--id is required (a nodepair certificate id)")
    cert = load(args.id)
    if cert.kind != "nodepair":
        raise ValueError(f"{cert.id} has kind {cert.kind!r}, not nodepair")
    rec = verify_certificate(cert, completion_seed=args.seed)
    return [rec], rec["pass"]


def _cmd_identity_h36(args) -> Handled:
    from .hessian import identity_h36

    rec = identity_h36(args.trials, args.seed, include_symbolic=not args.skip_symbolic)
    return [rec], rec["pass"]


def _cmd_critical(args) -> Handled:
    from .exterior import ChartPoint, act_translation, gradient, is_critical
    from .hessian import ASSEMBLY_SIDE_CAP
    from .node_cusp import cusp_membership

    A = B = _load_array(args.input)
    # bound the k(N-k) entries of the gradient by the most cells a plan holds
    partials = A.k * (A.N - A.k)
    if partials > ASSEMBLY_SIDE_CAP**2:
        raise ValueError(f"({A.k},{A.N}) chart has {partials} first partials, over the cap of {ASSEMBLY_SIDE_CAP**2}")
    at_zero = True
    if args.point:
        X = _load_json(
            args.point,
            lambda doc: ChartPoint.from_rows(A.k, A.N, [[_point_entry(e) for e in row] for row in doc["rows"]]),
            "a chart point",
        )
        at_zero = all(e == 0 for row in X.X for e in row)
        B = act_translation(A, X)
    rec = {"k": A.k, "N": A.N, "critical": is_critical(B), "gradient": gradient(B)}
    if at_zero:
        rec["cusp_membership"] = cusp_membership(A)
    return [rec], True


# ---------------------------------------------------------------------------
# wiring


_HANDLERS = {
    "hessian": _cmd_hessian,
    "det": _cmd_det,
    "rank": _cmd_rank,
    "degrees": _cmd_degrees,
    "irreducible": _cmd_irreducible,
    "specialize": _cmd_specialize,
    "duality": _cmd_duality,
    "node": _cmd_node,
    "verify-certificates": _cmd_verify_certificates,
    "verify-node": _cmd_verify_node,
    "identity-h36": _cmd_identity_h36,
    "critical": _cmd_critical,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting on its own
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="single 64-bit seed for all randomness")
    common.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    common.add_argument("--output", default=None, help="write the report here instead of stdout")

    shape = _Parser(add_help=False)
    shape.add_argument("--k", type=int, default=None)
    shape.add_argument("--N", type=int, default=None)

    p = _Parser(prog="blockhess", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("hessian", parents=[common, shape], help="assemble and print a matrix")
    sp.add_argument("--input", default=None, help="coefficient array JSON; omit for symbolic entries")
    sp.add_argument("--dual", action="store_true", help="matrix at the opposite coordinate point")

    sp = sub.add_parser("det", parents=[common], help="exact (or modular) determinant")
    sp.add_argument("--input", required=True)
    sp.add_argument("--dual", action="store_true")
    sp.add_argument("--mod", type=int, default=None)

    sp = sub.add_parser("rank", parents=[common], help="exact rank, corank, block-row ranks")
    sp.add_argument("--input", required=True)
    sp.add_argument("--dual", action="store_true")

    sub.add_parser("degrees", parents=[common, shape], help="admissible factor degrees")

    sp = sub.add_parser("irreducible", parents=[common, shape], help="factor-degree verdict")
    sp.add_argument("--N-max", type=int, default=None, help="run the whole schedule up to here")

    sp = sub.add_parser("specialize", parents=[common], help="direct-sum embedding of two arrays")
    sp.add_argument("inputs", nargs=2, metavar="FILE")
    sp.add_argument("--full", action="store_true", help="include the embedded matrix rows")

    sp = sub.add_parser("duality", parents=[common, shape], help="relabel (k,N) as (N-k,N) and check")
    sp.add_argument("--symbolic", action="store_true")
    sp.add_argument("--trials", type=int, default=10)

    sp = sub.add_parser("node", parents=[common, shape], help="degenerating frames and defining forms")
    sp.add_argument("--J", default=None, help="comma-separated target index set")
    sp.add_argument("--T", default=None, help="numeric parameter value (rational)")
    sp.add_argument("--symbolic", action="store_true", help="one-parameter family (the default when --T is omitted)")
    sp.add_argument("--limits", action="store_true", help="include the T=0 limit system")

    sp = sub.add_parser("verify-certificates", parents=[common], help="verify embedded records")
    sp.add_argument("--id", default=None, metavar="ID")
    sp.add_argument("--input", default=None, help="verify an imported certificate JSON instead")

    sp = sub.add_parser("verify-node", parents=[common], help="node-pair record, condition by condition")
    sp.add_argument("--id", default=None, metavar="ID")

    sp = sub.add_parser("identity-h36", parents=[common], help="cube identity, symbolic + prime fields")
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--skip-symbolic", action="store_true", help="corroborations only")

    sp = sub.add_parser("critical", parents=[common], help="gradient and criticality at a chart point")
    sp.add_argument("--input", required=True)
    sp.add_argument("--point", default=None, help="path to a JSON file {\"rows\": [[...]]}; default: the zero point")

    return p


def _config(args) -> dict:
    """Everything an invocation depends on, as the meta line prints it."""
    J = getattr(args, "J", None)
    inputs = [v for v in (getattr(args, "input", None), getattr(args, "point", None)) if v]
    config = {
        "command": args.command,
        "inputs": inputs + list(getattr(args, "inputs", ())),
        "k": getattr(args, "k", None),
        "N": getattr(args, "N", None),
        "J": list(_parse_J(J)) if J else None,
        "T": getattr(args, "T", None),
        "seed": args.seed,
        "trials": getattr(args, "trials", 1),
        "prime_policy": "fixed-table",
        "output": args.output,
        "format": args.fmt,
    }
    if config["trials"] < 1:
        raise ValueError(f"trials must be >= 1, got {config['trials']}")
    if not 0 <= args.seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return config


def _json_value(value):
    """What JSON has no type for: a Fraction prints as a number when
    integral and as ``"a/b"`` otherwise.  Any other type is an internal
    fault, never an input error, so it raises TypeError."""
    from fractions import Fraction

    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    raise TypeError(f"{type(value).__name__} value in a record has no JSON rendering")


def _text_block(rec: dict, indent: str = "") -> list[str]:
    lines: list[str] = []
    for key, val in rec.items():
        if isinstance(val, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_text_block(val, indent + "  "))
        elif isinstance(val, list) and val and isinstance(val[0], list):
            lines.append(f"{indent}{key}:")
            lines.extend(f"{indent}  " + "  ".join(str(e) for e in row) for row in val)
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{indent}{key}:")
            for item in val:
                lines.extend(_text_block(item, indent + "  "))
                lines.append(f"{indent}  -")
        else:
            lines.append(f"{indent}{key}: {val}")
    return lines


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _config(args)
        records, passed = _HANDLERS[args.command](args)
        meta: dict = {"command": args.command, "version": __version__, "config": config}
        used = {r["id"]: r["checksum"] for r in records if "id" in r and "checksum" in r}
        if used:
            meta["certificate_checksums"] = dict(sorted(used.items()))
        # rendered inside the boundary: an int past the digit limit
        # (sys.get_int_max_str_digits()) is a ValueError here
        if args.fmt == "json":
            lines = [json.dumps(rec, separators=(",", ":"), default=_json_value) for rec in (meta, *records)]
        else:
            lines = []
            for rec in records:
                lines.extend(_text_block(rec))
                lines.append("")
        text = "\n".join(lines) + "\n"
    except ValueError as exc:  # the one exit-2 boundary; see the module docstring
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as exc:
            print(json.dumps({"error": f"cannot write {args.output}: {exc}"}), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    print(f"{args.command}: {len(records)} record(s), {'PASS' if passed else 'FAIL'}", file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

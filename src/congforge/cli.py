"""Command-line surface: check, gen, alg, verify.

Exit codes: 0 the property holds / all checks pass, 1 it fails (with a
verdict on stdout) or stdout was closed before the output was written,
2 usage or input errors.  Output is JSON by default; --human switches to
a short text rendering.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import algebras, fixtures, jsonio, limits, subspaces, terms, verify
from .limits import CongforgeError
from .partitions import Partition, full_partition_lattice


def _emit(data, human, human_text=None):
    if human and human_text is not None:
        print(human_text)
    else:
        print(json.dumps(jsonio.jsonable(data), indent=2, sort_keys=True))


def cmd_check(args):
    lat = jsonio.load_lattice(args.lattice)
    if args.builtin:
        phi = terms.builtin_formula(args.builtin, n=args.n)
    elif args.identity:
        phi = terms.parse(args.identity)
        if not isinstance(phi, (terms.Identity, terms.QuasiIdentity)):
            raise ValueError("input parses to a bare term, not an identity")
    else:
        raise ValueError("give --builtin or --identity")
    if args.mode == "sampled":
        verdict = terms.holds(
            lat, phi, mode="sampled", samples=args.samples, seed=args.seed
        )
    else:
        verdict = terms.holds(lat, phi, budget=args.budget)
    payload = {
        "formula": terms.to_str(phi),
        "lattice_size": lat.size,
        "status": verdict.status,
        "assignment": verdict.assignment,
        "checked": verdict.checked,
    }
    _emit(
        payload,
        args.human,
        "%s: %s%s"
        % (
            verdict.status,
            terms.to_str(phi),
            "" if verdict.assignment is None else " at %s" % verdict.assignment,
        ),
    )
    return 0 if verdict.holds else 1


def cmd_gen(args):
    if args.kind == "m3":
        lat = fixtures.m3()
    elif args.kind == "n5":
        lat = fixtures.n5()
    elif args.kind == "pi":
        if args.n is None:
            raise ValueError("gen pi needs --n")
        lat = full_partition_lattice(args.n).lattice
    elif args.kind == "sub":
        if args.dim is None or args.p is None:
            raise ValueError("gen sub needs --dim and --p")
        lat = subspaces.subspace_lattice(args.dim, args.p).lattice
    else:  # product, the last of the parser's choices
        if len(args.files) != 2:
            raise ValueError("gen product needs two lattice files")
        from .lattice import direct_product

        lat = direct_product(jsonio.load_lattice(args.files[0]),
                             jsonio.load_lattice(args.files[1]))
    print(jsonio.lattice_to_json(lat))
    return 0


def _parse_congruence(alg, text):
    if text in ("top", "1"):
        return Partition.one_block(alg.size)
    if text in ("bottom", "0"):
        return Partition.singletons(alg.size)
    part = Partition.from_blocks(alg.size, json.loads(text))
    if not algebras.is_congruence(alg, part):
        raise ValueError("%s is not a congruence of the algebra" % text)
    return part


# positional arguments each alg action takes
_ALG_ARGS = {"con": 0, "commutator": 2, "wdt": 1, "embed-construct": 0}


def cmd_alg(args):
    if len(args.args) != _ALG_ARGS[args.action]:
        raise ValueError("alg %s takes %d arguments, got %d"
                         % (args.action, _ALG_ARGS[args.action], len(args.args)))
    alg = jsonio.load_algebra(args.algebra)
    if args.action == "con":
        con = algebras.con_lattice(alg)
        payload = {
            "count": len(con),
            "congruences": [c.blocks() for c in con.congruences],
            "lattice": jsonio.lattice_to_dict(con.lattice),
        }
        _emit(payload, args.human, "%d congruences" % len(con))
        return 0
    if args.action == "commutator":
        a = _parse_congruence(alg, args.args[0])
        b = _parse_congruence(alg, args.args[1])
        comm = algebras.commutator(alg, a, b)
        _emit(
            {"commutator": comm.blocks()},
            args.human,
            "[a,b] = %s" % comm.blocks(),
        )
        return 0
    if args.action == "wdt":
        d = algebras.parse_term_expr(args.args[0])
        ok, witness = algebras.check_weak_difference_term(alg, d)
        _emit(
            {
                "is_weak_difference_term": ok,
                "witness": None
                if witness is None
                else {"a": witness[0], "b": witness[1], "theta": witness[2].blocks()},
            },
            args.human,
            "weak difference term: %s" % ok,
        )
        return 0
    # embed-construct, the last of the parser's choices
    if args.alpha is None:
        raise ValueError("alg embed-construct needs --alpha")
    alpha = _parse_congruence(alg, args.alpha)
    rep = algebras.verify_embedding_construction(alg, alpha, args.n)
    payload = {
        "n": rep.n,
        "universe_size": rep.universe_size,
        "interval_size": rep.interval_size,
        "checks": rep.checks,
        "passed": rep.passed,
    }
    _emit(payload, args.human, "passed: %s (%s)" % (rep.passed, rep.checks))
    return 0 if rep.passed else 1


def cmd_verify(args):
    results = verify.run_suite(
        args.suite,
        seed=args.seed,
        instances=args.instances,
        sampled_count=args.samples,
        budget=args.budget,
    )
    all_pass = all(r.passed for r in results)
    if args.human:
        for r in results:
            for c in sorted(r.checks, key=lambda c: c.check_id):
                print("[%s] %s (%.2fs)" % ("pass" if c.passed else "FAIL", c.check_id, c.elapsed))
        print("suite %s: %s" % (args.suite, "pass" if all_pass else "FAIL"))
    else:
        print(
            json.dumps(
                {
                    "passed": all_pass,
                    "suites": [r.to_dict() for r in results],
                },
                indent=2,
            )
        )
    return 0 if all_pass else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="congforge",
        description="finite-scale lattice theory and universal algebra toolkit",
    )
    ap.add_argument("--human", action="store_true", help="text output instead of JSON")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check an identity in a lattice file")
    p.add_argument("lattice")
    p.add_argument("--builtin", choices=[
        "modular", "2dist", "sd-meet", "sd-join", "dn", "dn-star", "arguesian-d3",
    ])
    p.add_argument("--identity", help="identity or quasi-identity in concrete syntax")
    p.add_argument("--n", type=int, help="index for the dn / dn-star families")
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=limits.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="emit a lattice as JSON")
    p.add_argument("kind", choices=["pi", "sub", "m3", "n5", "product"])
    p.add_argument("files", nargs="*", help="operand lattice files for 'product'")
    p.add_argument("--n", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--p", type=int)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("alg", help="congruence computations on an algebra file")
    p.add_argument("algebra")
    p.add_argument(
        "action", choices=["con", "commutator", "wdt", "embed-construct"]
    )
    p.add_argument("args", nargs="*", help="action arguments")
    p.add_argument("--alpha", help="congruence for embed-construct (top/bottom/blocks)")
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=cmd_alg)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "suite", choices=list(verify.SUITES) + ["all"]
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help="evaluation budget forwarded to identity checks")
    p.add_argument("--instances", type=int, default=10_000)
    p.add_argument("--samples", type=int, default=10**6)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (as `| head` does); pointing it at
        # devnull keeps the interpreter's last flush from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CongforgeError, FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the input is nested too deeply to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs and output oracles for the benchmark workloads.

Each workload is a closed loop of rounds; a round is a short list of
`hatfam` argv lists whose kinds are balanced, so the median op time does
not depend on which kinds a seed happens to draw.  The seed picks the
order inside a round and the inputs that do not change the amount of work
(scale, colour scheme, output format, off-hat shape).

Oracles compare each op's output with `refs.json`, recorded at the seed
commit by `record_refs.py`, except for `shapes`, whose expected hat counts
come from this module's own recurrence.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("build-hat", "render", "verify", "shapes")
REFS_PATH = Path(__file__).with_name("refs.json")
# render writes here, relative to the checkout root (the worker's cwd)
SVG_OUT = ".perfbench-out/render.svg"

# generations used by the timed loops, and by the smoke mode
FULL_GENS = {"build-hat": (6,), "render": (5, 4), "verify": (5,),
             "shapes": (6,)}
SMOKE_GENS = {"build-hat": (3,), "render": (3, 3), "verify": (3,),
              "shapes": (3,)}

KINDS = ("hat", "thc")
SCALES = (1, 2, 3)
SCHEMES = ("rotation", "plain")
_TIMING = re.compile(r" \(\d+\.\d+s\)$")


def hats(kind: str, gen: int) -> int:
    """Hats in a generation-gen supertile: h(n) = 6h(n-1) + c(n-1),
    c(n) = 5h(n-1) + c(n-1), h(1) = 1, c(1) = 2."""
    h, c = 1, 2
    for _ in range(gen - 1):
        h, c = 6 * h + c, 5 * h + c
    return h if kind == "hat" else c


def _build(kind: str, gen: int, a: str, b: str) -> list[str]:
    return ["build", kind, str(gen), "-a", a, "-b", b, "--format", "json"]


def _hat_build(kind: str, gen: int, k: int) -> list[str]:
    # b = sqrt(3)*a keeps hat proportions; integer a stays on the kite lattice
    return _build(kind, gen, str(k), f"{k}*r3")


def _render(gens: tuple, grid: bool, k: int, scheme: str) -> list[str]:
    extra = ["--grid"] if grid else ["--supervectors", "3"]
    return (["render", "hat", str(gens[grid]), *extra, "-a", str(k), "-b", f"{k}*r3",
             "--scheme", scheme, "-o", SVG_OUT])


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _round(workload: str, rng: random.Random, gens: tuple) -> list[list[str]]:
    if workload == "build-hat":
        out = [_hat_build(kind, gens[0], rng.choice(SCALES)) for kind in KINDS]
    elif workload == "render":
        out = [_render(gens, grid, rng.choice(SCALES), rng.choice(SCHEMES))
               for grid in (False, True)]
    elif workload == "verify":
        out = [["verify", "--max-gen", str(gens[0]),
                "--format", rng.choice(("text", "json"))]]
    elif workload == "shapes":
        # off-hat Tile(a, b) with a != b, drawn as in the verify suite
        while True:
            a = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            b = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            if a != b:
                break
        out = [_build(kind, gens[0], _frac(a), _frac(b)) for kind in KINDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out


def rounds(workload: str, seed: int, count: int, smoke: bool = False):
    """The first `count` rounds of a workload's seeded op sequence."""
    rng = random.Random(f"{workload}:{seed}")
    gens = (SMOKE_GENS if smoke else FULL_GENS)[workload]
    return [_round(workload, rng, gens) for _ in range(count)]


def all_argvs(workload: str, smoke: bool) -> list[list[str]]:
    """Every argv the seeded sequence can draw (for recording references)."""
    gens = (SMOKE_GENS if smoke else FULL_GENS)[workload]
    if workload == "build-hat":
        return [_hat_build(kind, gens[0], k) for kind in KINDS for k in SCALES]
    if workload == "render":
        return [_render(gens, grid, k, s)
                for grid in (False, True) for k in SCALES for s in SCHEMES]
    if workload == "verify":
        return [["verify", "--max-gen", str(gens[0]), "--format", "text"]]
    raise ValueError(f"{workload} has no recorded references")


def op_hats(argv: list[str]) -> int:
    """Hats of the supertile an op builds, renders or verifies up to."""
    if argv[0] == "verify":
        return hats("hat", int(argv[argv.index("--max-gen") + 1]))
    return hats(argv[1], int(argv[2]))


def key(argv: list[str]) -> str:
    return " ".join(argv)


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verify_items(stdout: str, fmt: str) -> list[list]:
    """[passed, name, detail] per verify item, without the timings."""
    if fmt == "json":
        return [[it["pass"], it["name"], it["detail"]]
                for it in json.loads(stdout)["items"]]
    items = []
    for line in stdout.splitlines()[:-1]:
        status, rest = line.split(" ", 1)
        name, detail = rest.split(": ", 1)
        items.append([status == "PASS", name, _TIMING.sub("", detail)])
    return items


def check(workload: str, op: dict, refs: dict) -> str | None:
    """None when the op's output is right, else the reason it is not."""
    if op["error"]:
        return f"raised {op['error']}"
    if op["rc"] != 0:
        return f"exit code {op['rc']}: {op['stderr'].strip()[:200]}"
    try:
        return _check_output(workload, op, refs)
    except (ValueError, KeyError, IndexError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"


def _check_output(workload: str, op: dict, refs: dict) -> str | None:
    argv = op["argv"]
    if workload == "build-hat":
        want = refs["outputs"].get(key(argv))
        got = sha256(op["stdout"].encode("utf-8"))
        return None if got == want else f"output digest {got} != {want}"
    if workload == "render":
        want = refs["outputs"].get(key(argv))
        got = op.get("svg_sha256")
        return None if got == want else f"svg digest {got} != {want}"
    if workload == "verify":
        fmt = argv[argv.index("--format") + 1]
        got = verify_items(op["stdout"], fmt)
        want = refs["verify"].get(argv[argv.index("--max-gen") + 1])
        if len(got) != 12 or not all(ok for ok, _, _ in got):
            return f"{sum(ok for ok, _, _ in got)}/{len(got)} items passed"
        return None if got == want else "verify details differ from the reference"
    if workload == "shapes":
        doc = json.loads(op["stdout"])
        want = hats(argv[1], int(argv[2]))
        if doc["hats"] != want:
            return f"{doc['hats']} hats, expected {want}"
        checks = {c["name"]: c for c in doc["checks"]}
        if set(checks) != {"counts", "supervector", "disjoint"}:
            return f"checks run: {sorted(checks)}"
        if not all(c["pass"] for c in checks.values()):
            return "a build check failed"
        if not checks["disjoint"]["detail"].startswith("skipped"):
            return "disjoint check was not skipped off the hat ratio"
        return None
    raise ValueError(f"unknown workload {workload!r}")

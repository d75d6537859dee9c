"""A fixed corpus of command lines, run in process by
``cli_harness.run_cli``, where a warning raises and stops the script.

    python3 tests/cli_corpus.py > corpus.txt

Instances from fixed seeds are written to a temporary directory, which is
also the working directory of every command, so paths print as
basenames.  The corpus holds successful commands (every subcommand, all
four families, csv/json/plotdata, --output files, bound and measured
plan, comma lists with spaces around their items, a spin sweep over a
spectrum 2000 wide, sweeps and measured plans of two instances whose
evaluations leave the float range, bounds on a spectrum past the float
range, every command on an albert instance whose first element is 1
plus an off-diagonal part of 1e-120) and the error paths: the instance
files of the CLI error-contract test, the commands that need an
exponential of a spectrum past the float range, a herm sum holding an
inf, and a comma list with an item of spaces only.  Each command prints
one line: its argv, its exit code, and the sha256 of its stdout, its
stderr and each file it wrote.
The output does not depend on PYTHONHASHSEED, and diffing the output of
two checkouts shows which commands changed.  The whole list runs twice in
the same process (which shares one parser and the library's memos), and
each line prints once, from the first pass.  The exit code is 1 if a
command meant to succeed did not, if a command broke the error contract
(``cli_harness.keeps_the_contract``), if any line of the second pass
differs from the first, or if scipy, mpmath, hypothesis or pytest was
loaded by the end; stderr names those commands and modules.  The last is
the check that the CLI needs numpy alone, so this script imports only
the standard library, numpy, ``jbtrotter`` and the dependency-free
``cli_harness``, whose ``spectrum_past_the_float_range`` builds the first
element of each instance past the float range.
(No test_ prefix: pytest does not collect this file.)
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from jbtrotter.algebras import AlgebraDescriptor  # noqa: E402
from jbtrotter.instances import ProblemInstance, instance_to_dict  # noqa: E402
from cli_harness import (  # noqa: E402
    CONTRACT_FILES,
    NEAR_UNIT_ALBERT,
    OVERFLOW_SUM_HERM,
    OVERFLOW_SYM,
    WIDE_SPIN,
    contract_bytes,
    keeps_the_contract,
    run_cli,
    spectrum_past_the_float_range,
)

# numpy is the one runtime dependency: none of these may be loaded by the
# time every command has run.
TEST_ONLY_MODULES = ("scipy", "mpmath", "hypothesis", "pytest")

FAMILIES = (("sym", 3), ("herm", 3), ("spin", 4), ("spin", 33), ("albert", 3))

# (kind, dim, element count, entry scale): one instance each.
INSTANCES = [
    (kind, dim, m, scale)
    for kind, dim in FAMILIES
    for m in (2, 3)
    for scale in (1e-120, 0.1, 0.5)
]

# One instance per family whose first element is
# cli_harness.spectrum_past_the_float_range, with entries 0 or 1e308: its top
# eigenvalue, 2e308 or more, is past the float range.  The second element is
# an ordinary one.
FLOAT_RANGE = {f"float-range-{kind}.json": (kind, dim)
               for kind, dim in (("sym", 3), ("herm", 3), ("spin", 4), ("albert", 3))}


def _payload(kind: str, dim: int, rng, scale: float):
    """A Gaussian payload in the instance file layout, entries times scale.
    Drawn without the library, so two checkouts read the same inputs."""
    if kind in ("sym", "herm"):
        m = scale * rng.standard_normal((dim, dim))
        if kind == "herm":
            m = m + 1j * scale * rng.standard_normal((dim, dim))
        entries = (m + m.conj().T).ravel().tolist()
        return entries if kind == "sym" else [[z.real, z.imag] for z in entries]
    v = (scale * rng.standard_normal(dim + 1 if kind == "spin" else 27)).tolist()
    if kind == "spin":
        return {"s": v[0], "v": v[1:]}
    return {"diag": v[:3], "x": v[3:11], "y": v[11:19], "z": v[19:]}


def write_instances(root: Path) -> list[str]:
    names = []
    for i, (kind, dim, m, scale) in enumerate(INSTANCES):
        rng = np.random.default_rng(i)
        doc = {"algebra": {"kind": kind, "dim": dim}, "label": f"corpus-{i}",
               "elements": [_payload(kind, dim, rng, scale) for _ in range(m)]}
        names.append(f"{kind}{dim}-m{m}-scale{scale}.json")
        (root / names[-1]).write_text(json.dumps(doc), encoding="utf-8")
    for i, (name, (kind, dim)) in enumerate(FLOAT_RANGE.items()):
        desc = AlgebraDescriptor(kind, dim)
        doc = instance_to_dict(ProblemInstance(desc, (spectrum_past_the_float_range(desc),),
                                               name.removesuffix(".json")))
        doc["elements"].append(_payload(kind, dim, np.random.default_rng(i), 0.5))
        (root / name).write_text(json.dumps(doc), encoding="utf-8")
    for name, doc in {**CONTRACT_FILES, "wide-spin.json": WIDE_SPIN,
                      "overflow-sym.json": OVERFLOW_SYM,
                      "near-unit-albert.json": NEAR_UNIT_ALBERT,
                      "overflow-sum-herm.json": OVERFLOW_SUM_HERM}.items():
        (root / name).write_bytes(contract_bytes(doc))
    return names


def successful_commands(instances: list[str]) -> list[list[str]]:
    cmds = [["demo"], ["demo", "--output", "demo.txt"]]
    for algebra in (f"{kind}:{dim}" for kind, dim in FAMILIES):
        cmds.append(["verify-axioms", "--algebra", algebra, "--trials", "50"])
        cmds.append(["verify-axioms", "--algebra", algebra, "--trials", "10", "--seed", "7",
                     "--output", "axioms.txt"])
        cmds.append(["bounds", "--norms", "0.5,1.5", "--algebra", algebra, "--scheme", "g,f"])
        cmds.append(["plan", "--norms", "1,0.5,0.25", "--algebra", algebra, "--scheme", "f",
                     "--eps", "1e-6"])
    cmds.append(["bounds", "--norms", "1,2,3", "--n", "1,3,9,27", "--out", "json"])
    cmds.append(["bounds", "--norms", "0.1,0.2", "--out", "plotdata", "--scheme", "f,g",
                 "--output", "bounds.dat"])
    cmds.append(["plan", "--norms", "1,1", "--eps", "1e-4"])
    # Spaces around a comma-list item are dropped in every list.
    cmds.append(["bounds", "--norms", " 1, 2", "--scheme", "g, f", "--n", "1, 2"])
    cmds.append(["plan", "--norms", "1, 1", "--scheme", " f ", "--eps", "1e-4"])
    for name, (_, _, m, scale) in zip(instances, INSTANCES):
        # Scheme h needs an odd element count.
        schemes = "g,f,h" if m % 2 else "g,f"
        cmds += [
            ["sweep", "--input", name, "--scheme", schemes, "--n", "1:256:x2"],
            ["sweep", "--input", name, "--scheme", schemes, "--n", "1,3,6,12,13"],
            ["sweep", "--input", name, "--scheme", "f", "--n", "1,3,10", "--out", "json"],
            ["sweep", "--input", name, "--scheme", schemes, "--n", "2:32:x4", "--out", "plotdata"],
            ["sweep", "--input", name, "--scheme", "g,f", "--n", "1,2,4", "--out", "plotdata",
             "--output", "sweep.dat"],
            ["sweep", "--input", name, "--n", "8", "--out", "json", "--output", "sweep.json"],
            ["jets", "--input", name],
            ["jets", "--input", name, "--degree", "4", "--output", "jets.txt"],
            ["bounds", "--input", name, "--scheme", "g,f", "--n", "1:256:x4"],
            ["plan", "--input", name, "--scheme", "f", "--eps", "1e-5"],
            ["plan", "--input", name, "--mode", "measured", "--scheme", "g",
             "--eps", "1e-2" if scale < 0.5 else "1e-1"],
            ["plan", "--input", name, "--mode", "measured", "--scheme", "f", "--eps", "1e-4",
             "--output", "plan.txt"],
        ]
    cmds.append(["sweep", "--input", "wide-spin.json", "--scheme", "g,f", "--n", "1:16:x2"])
    for name in ("overflow-single.json", "overflow-sym.json"):
        cmds += [
            ["sweep", "--input", name, "--scheme", "g,f", "--n", "1:16:x2"],
            ["sweep", "--input", name, "--scheme", "g,f", "--n", "1:16:x2", "--out", "json"],
            ["plan", "--input", name, "--mode", "measured", "--eps", "1e-3"],
        ]
    cmds += [["bounds", "--input", name, "--scheme", "g,f", "--n", "1,2"] for name in FLOAT_RANGE]
    # The sweep's errors sit at the roundoff floor: no order is fitted.
    name = "near-unit-albert.json"
    cmds += [
        ["bounds", "--input", name, "--scheme", "g,f", "--n", "1,2"],
        ["sweep", "--input", name, "--scheme", "g,f", "--n", "1:16:x2"],
        ["jets", "--input", name],
        ["plan", "--input", name, "--eps", "1e-3"],
        ["plan", "--input", name, "--mode", "measured", "--eps", "1e-3"],
    ]
    return cmds


def error_commands() -> list[list[str]]:
    cmds = []
    for name in sorted(CONTRACT_FILES) + ["missing.json"]:
        cmds += [
            ["sweep", "--input", name, "--scheme", "g,f,h", "--n", "1,2,4"],
            ["jets", "--input", name],
            ["bounds", "--input", name, "--n", "1,2"],
            ["plan", "--input", name, "--eps", "1e-3"],
            ["plan", "--input", name, "--mode", "measured", "--eps", "1e-1"],
        ]
    for name in FLOAT_RANGE:
        cmds += [
            ["plan", "--input", name, "--eps", "1e-3"],
            ["sweep", "--input", name, "--scheme", "g,f", "--n", "1,2"],
            ["jets", "--input", name],
        ]
    cmds += [
        ["bounds", "--norms", "1, ,2"],
        ["sweep", "--input", "overflow-sum-herm.json", "--scheme", "g,f", "--n", "1,2"],
        ["plan", "--input", "overflow-sum-herm.json", "--mode", "measured", "--eps", "1e-3"],
    ]
    return cmds


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], root: Path, inputs: set[str]):
    """Exit code, stdout, stderr and the files written, as {name: bytes};
    the written files are removed."""
    code, out, err = run_cli(*argv)
    written = {}
    for name in sorted(set(os.listdir(root)) - inputs):
        written[name] = (root / name).read_bytes()
        (root / name).unlink()
    return code, out, err, written


def line(argv: list[str], root: Path, inputs: set[str]) -> tuple[int, bool, str]:
    """Exit code, whether the error contract held, and corpus line of one
    command."""
    code, out, err, written = run(argv, root, inputs)
    files = " ".join(f"{name}={_sha(data)}" for name, data in written.items())
    return code, keeps_the_contract(code, err), (
        f"{' '.join(argv)} | exit {code} | stdout {_sha(out.encode())}"
        f" | stderr {_sha(err.encode())} | files {files or '-'}")


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        instances = write_instances(root)
        inputs = set(os.listdir(root))
        cwd = os.getcwd()
        os.chdir(root)
        try:
            corpus = [(argv, True) for argv in successful_commands(instances)]
            corpus += [(argv, False) for argv in error_commands()]
            first = [line(argv, root, inputs) for argv, _ in corpus]
            second = [line(argv, root, inputs) for argv, _ in corpus]
        finally:
            os.chdir(cwd)
    for _, _, text in first:
        print(text)
    failed = [argv for (argv, must_succeed), (code, _, _) in zip(corpus, first)
              if must_succeed and code != 0]
    broken = [argv for (argv, _), (_, kept, _) in zip(corpus, first) if not kept]
    unstable = [argv for (argv, _), a, b in zip(corpus, first, second) if a != b]
    loaded = [name for name in TEST_ONLY_MODULES if name in sys.modules]
    print(f"{len(corpus)} commands, {len(failed)} expected successes failed, "
          f"{len(broken)} broke the error contract, {len(unstable)} changed in the second "
          f"pass, {len(loaded)} test-only modules loaded, {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    for argv in failed:
        print(f"failed: {' '.join(argv)}", file=sys.stderr)
    for argv in broken:
        print(f"broke the error contract: {' '.join(argv)}", file=sys.stderr)
    for argv in unstable:
        print(f"changed in the second pass: {' '.join(argv)}", file=sys.stderr)
    for name in loaded:
        print(f"test-only module loaded: {name}", file=sys.stderr)
    return 1 if failed or broken or unstable or loaded else 0


if __name__ == "__main__":
    sys.exit(main())

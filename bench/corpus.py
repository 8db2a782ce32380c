"""Seeded certificate corpus for the ``verify`` workload.

Writes certificate text and a manifest before any clock starts, so the
measured process only ever reads generated files.  Three families of
valid certificates, each with tampered twins of known verdict:

  * cyclic: for odd n every Z_n-orbit of 4-subsets is full and is a
    4-regular class, so the orbits form a 4-factorization of K_n^4;
  * nested: lam classes that are each all 4-subsets of {1..n}, extending
    lam classes that are each all 4-subsets of {1..m}, i.e. an embedding
    (m, n, C(m-1,3), C(n-1,3), lam) with one class per copy;
  * fixtures: the three nested 7x18 files shipped in ``fixtures/``.

The seed relabels vertices (old and new vertices separately, so nesting
survives), shuffles class order (the same shuffle on an inner class and its
outer class) and picks which blocks each tamper touches.  Tampers:

  * swap: two different blocks trade classes (regularity breaks);
  * dup: a block is added a second time (the cover breaks);
  * stray: an inner block moves into an outer class with no inner
    partner (nesting breaks); only where such classes exist.

Each item's verdict is known by construction and re-derived by
``checks.certificate_defects``; the manifest records both.

Usage: python3 bench/corpus.py --seed N --scale full|toy --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import certificate_defects, parse_certificate_text  # noqa: E402

ROOT = HERE.parent


def cyclic(n: int) -> tuple:
    """The Z_n-orbit 4-factorization of K_n^4 for odd n, on {1..n}."""
    seen = set()
    classes = []
    for base in combinations(range(n), 4):
        if base in seen:
            continue
        orbit = [tuple(sorted((v + i) % n for v in base)) for i in range(n)]
        seen.update(orbit)
        classes.append([tuple(v + 1 for v in b) for b in orbit])
    return n, 1, 4, classes


def one_class_per_copy(v: int, lam: int) -> tuple:
    """lam classes, each every 4-subset of {1..v}: a C(v-1,3)-factorization."""
    every = list(combinations(range(1, v + 1), 4))
    return v, lam, len(every) * 4 // v, [list(every) for _ in range(lam)]


def read_fixture(name: str) -> tuple:
    ground, lam, reg, classes = parse_certificate_text(
        (ROOT / "fixtures" / name).read_text(encoding="ascii"))
    return ground, lam, reg, classes


def render(fact: tuple) -> str:
    ground, lam, reg, classes = fact
    lines = [f"{ground} {lam} {reg} {len(classes)}"]
    for i, cls in enumerate(classes):
        body = ", ".join(" ".join(map(str, b)) for b in sorted(cls))
        lines.append(f"{i + 1}: {body}")
    return "\n".join(lines) + "\n"


def shuffle_item(rng: random.Random, outer: tuple, inner: tuple | None):
    """Relabel vertices and reorder classes without changing the verdict."""
    n, lam, s, oc = outer
    m = inner[0] if inner else 0
    old, new = list(range(1, m + 1)), list(range(m + 1, n + 1))
    rng.shuffle(old)
    rng.shuffle(new)
    label = [0] + old + new

    def relabel(classes):
        return [[tuple(sorted(label[v] for v in b)) for b in cls] for cls in classes]

    q = len(inner[3]) if inner else 0
    head, tail = list(range(q)), list(range(q, len(oc)))
    rng.shuffle(head)
    rng.shuffle(tail)
    oc = relabel(oc)
    outer = (n, lam, s, [oc[i] for i in head + tail])
    if inner:
        ic = relabel(inner[3])
        inner = (m, inner[1], inner[2], [ic[i] for i in head])
    return outer, inner


def tampered(rng: random.Random, outer: tuple, inner: tuple | None):
    """(kind, outer) twins, each invalid by construction."""
    n, lam, s, oc = outer
    twins = []

    a, b = rng.sample(range(len(oc)), 2) if len(oc) > 1 else (0, 0)
    if a != b:
        i = rng.randrange(len(oc[a]))
        choices = [j for j, blk in enumerate(oc[b]) if blk != oc[a][i]]
        j = rng.choice(choices)
        cls = [list(c) for c in oc]
        cls[a][i], cls[b][j] = oc[b][j], oc[a][i]
        twins.append(("swap", (n, lam, s, cls)))

    a = rng.randrange(len(oc))
    cls = [list(c) for c in oc]
    cls[a].append(rng.choice(oc[a]))
    twins.append(("dup", (n, lam, s, cls)))

    if inner and len(oc) > len(inner[3]):
        m, q = inner[0], len(inner[3])
        a = rng.randrange(q)
        u = rng.randrange(q, len(oc))
        inside = [i for i, blk in enumerate(oc[a]) if blk[3] <= m]
        i = rng.choice(inside)
        cls = [list(c) for c in oc]
        cls[u].append(cls[a].pop(i))
        twins.append(("stray", (n, lam, s, cls)))
    return twins


def bases(scale: dict) -> list[tuple[str, tuple, tuple | None]]:
    items = []
    for n in scale["cyclic_n"]:
        items.append((f"cyclic-{n}", cyclic(n), None))
    for m, n, lam in scale["nested"]:
        items.append((f"nested-{m}-{n}-{lam}", one_class_per_copy(n, lam),
                      one_class_per_copy(m, lam)))
    if scale["fixtures"]:
        f6, f8, f9 = (read_fixture(f"intro_{v}.txt") for v in (6, 8, 9))
        items += [("intro-6", f6, None), ("intro-8-6", f8, f6),
                  ("intro-9-8", f9, f8), ("intro-9-6", f9, f6)]
    return items


def generate(seed: int, scale: dict, out: Path) -> list[dict]:
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("*.txt"):
        stale.unlink()
    manifest = []
    for name, outer, inner in bases(scale):
        rng = random.Random(f"{seed}:{name}")
        outer, inner = shuffle_item(rng, outer, inner)
        inner_file, parsed_inner, inner_blocks = None, None, 0
        if inner:
            inner_file = f"{name}.inner.txt"
            inner_text = render(inner)
            (out / inner_file).write_text(inner_text, encoding="ascii")
            parsed_inner = parse_certificate_text(inner_text)
            inner_blocks = sum(len(c) for c in inner[3])
        for kind, fact in [("valid", outer)] + tampered(rng, outer, inner):
            text = render(fact)
            item = f"{name}.{kind}"
            (out / f"{item}.txt").write_text(text, encoding="ascii")
            defects = certificate_defects(parse_certificate_text(text), parsed_inner)
            manifest.append({
                "item": item, "file": f"{item}.txt", "inner": inner_file,
                "blocks": sum(len(c) for c in fact[3]) + inner_blocks,
                "known_valid": kind == "valid", "checker_valid": not defects,
            })
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="ascii")
    return manifest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    generate(args.seed, spec["verify"]["corpus"][args.scale], Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

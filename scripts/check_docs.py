#!/usr/bin/env python3
"""CI docs gate: the documented operations surface must match the code.

Checks, in order:
  1. Every field of the operator-facing option structs
     (PartialEvalOptions, ServerOptions, BatchPolicy, AnswerCacheOptions,
     AdmissionOptions) is mentioned in README.md AND docs/OPERATIONS.md.
  2. Every metric name in the src/server/server_metrics.cc catalog tables
     is documented in docs/OPERATIONS.md.
  3. Every bench_server flag literal is documented in docs/OPERATIONS.md.
  4. Markdown link hygiene across tracked *.md files: relative link
     targets exist, and `DESIGN.md §N[.M]` references resolve to real
     `## N.` / `### N.M` headings.
  5. Every LockRank enumerator in src/util/sync.h appears in the
     DESIGN.md §12 rank table with its exact numeric value — an
     undocumented (or misnumbered) mutex rank fails CI.
  6. Every RoundKind enumerator in src/net/transport.h appears in the
     DESIGN.md §13.1 round table with its exact wire value — a round kind
     the wire-format section does not describe fails CI.

Run from the repo root: python3 scripts/check_docs.py
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

OPTION_STRUCTS = {
    "src/engine/partial_eval_engine.h": ["PartialEvalOptions"],
    "src/server/query_server.h": ["ServerOptions"],
    "src/server/batch_queue.h": ["BatchPolicy"],
    "src/server/answer_cache.h": ["AnswerCacheOptions"],
    "src/server/admission.h": ["AdmissionOptions"],
    "src/net/transport.h": ["TransportOptions", "FaultPlan"],
}

METRICS_SOURCE = "src/server/server_metrics.cc"
BENCH_SERVER = "bench/bench_server.cc"
README = "README.md"
OPERATIONS = "docs/OPERATIONS.md"

errors = []


def fail(msg: str) -> None:
    errors.append(msg)


def struct_fields(header: str, struct: str) -> list[str]:
    """Extracts field names of `struct X { ... };` (brace-matched, one
    declaration per line, skipping comments/methods/static members)."""
    text = (ROOT / header).read_text()
    m = re.search(r"struct\s+%s\s*\{" % re.escape(struct), text)
    if not m:
        fail(f"{header}: struct {struct} not found")
        return []
    depth, body_start = 1, m.end()
    i = body_start
    while i < len(text) and depth > 0:
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
        i += 1
    body = text[body_start : i - 1]
    fields = []
    for line in body.splitlines():
        line = line.split("//")[0].strip()
        if not line.endswith(";") or "(" in line or line.startswith("static"):
            continue
        decl = line[:-1].split("=")[0].strip()
        if not decl:
            continue
        name = decl.split()[-1].lstrip("*&")
        if re.fullmatch(r"[A-Za-z_]\w*", name):
            fields.append(name)
    if not fields:
        fail(f"{header}: no fields parsed for {struct} (parser drift?)")
    return fields


def metric_names() -> list[str]:
    """Metric names from the catalog tables: one {"name", ...} per line."""
    names = re.findall(r'^\s*\{"(server_\w+)",',
                       (ROOT / METRICS_SOURCE).read_text(), re.M)
    if len(names) < 10:
        fail(f"{METRICS_SOURCE}: only {len(names)} metric names parsed "
             "(catalog format drift? keep one entry per line, name first)")
    return names


def bench_server_flags() -> list[str]:
    """Flag literals bench_server parses (strncmp/strcmp string prefixes)."""
    text = (ROOT / BENCH_SERVER).read_text()
    flags = set()
    for literal in re.findall(r'"(--[a-z-]+)[="]', text):
        flags.add(literal)
    if len(flags) < 5:
        fail(f"{BENCH_SERVER}: only {len(flags)} flags parsed (drift?)")
    return sorted(flags)


def tracked_markdown() -> list[Path]:
    out = subprocess.run(["git", "ls-files", "*.md"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    return [ROOT / p for p in out.split() if p]


def check_coverage() -> None:
    readme = (ROOT / README).read_text()
    operations = (ROOT / OPERATIONS).read_text()
    for header, structs in OPTION_STRUCTS.items():
        for struct in structs:
            for field in struct_fields(header, struct):
                for doc_name, doc in ((README, readme),
                                      (OPERATIONS, operations)):
                    if f"`{field}`" not in doc and field not in doc:
                        fail(f"{doc_name}: {struct}::{field} (from {header}) "
                             "is undocumented")
    for name in metric_names():
        if name not in operations:
            fail(f"{OPERATIONS}: metric {name} is undocumented")
    for flag in bench_server_flags():
        if flag not in operations:
            fail(f"{OPERATIONS}: bench_server flag {flag} is undocumented")


def design_headings() -> set[str]:
    """Section numbers like '11' and '11.2' from DESIGN.md headings."""
    sections = set()
    for line in (ROOT / "DESIGN.md").read_text().splitlines():
        m = re.match(r"#{2,3}\s+(\d+(?:\.\d+)?)\.?\s", line)
        if m:
            sections.add(m.group(1))
    return sections


def check_links() -> None:
    sections = design_headings()
    # Inline code/fences can contain anything; strip fenced blocks first.
    fence = re.compile(r"```.*?```", re.S)
    for md in tracked_markdown():
        text = fence.sub("", md.read_text())
        rel = md.relative_to(ROOT)
        for target in re.findall(r"\]\(([^)#\s]+)(?:#[^)]*)?\)", text):
            if re.match(r"[a-z]+://", target):
                continue  # external URL; availability is not ours to gate
            resolved = (md.parent / target).resolve()
            if not resolved.exists():
                fail(f"{rel}: broken link target {target}")
        for ref in re.findall(r"DESIGN(?:\.md)?\)?\s+§(\d+(?:\.\d+)?)", text):
            if ref not in sections:
                fail(f"{rel}: DESIGN.md §{ref} does not match any heading")
        if md.name == "DESIGN.md":
            for ref in re.findall(r"§(\d+(?:\.\d+)?)", text):
                if ref not in sections:
                    fail(f"{rel}: §{ref} does not match any heading")


def check_lock_table() -> None:
    """Every LockRank enumerator must appear in the DESIGN.md §12 table with
    its exact numeric rank (the prose half of the order must not drift from
    the machine half; check_static.py covers the per-mutex declarations)."""
    sync = (ROOT / "src/util/sync.h").read_text()
    enum = re.search(r"enum class LockRank[^{]*\{(.*?)\n\};", sync, re.S)
    if not enum:
        fail("src/util/sync.h: LockRank enum not found (parser drift?)")
        return
    design = (ROOT / "DESIGN.md").read_text()
    start = design.find("## 12.")
    if start < 0:
        fail("DESIGN.md: §12 (concurrency invariants) heading is missing")
        return
    sec = design[start:]
    for name, value in re.findall(r"\b(k\w+)\s*=\s*(\d+)", enum.group(1)):
        if f"`{name}`" not in sec:
            fail(f"DESIGN.md §12: LockRank::{name} is undocumented")
        elif not re.search(r"\|\s*%s\s*\|\s*`%s`" % (value, name), sec):
            fail(f"DESIGN.md §12: `{name}` documented with a rank other "
                 f"than its enumerator value {value}")


def check_round_table() -> None:
    """Every RoundKind enumerator must appear in the DESIGN.md §13.1 table
    with its exact wire value (a worker decodes the kind byte, so the prose
    and the enum must agree on every value)."""
    transport = (ROOT / "src/net/transport.h").read_text()
    enum = re.search(r"enum class RoundKind[^{]*\{(.*?)\n\};", transport, re.S)
    if not enum:
        fail("src/net/transport.h: RoundKind enum not found (parser drift?)")
        return
    design = (ROOT / "DESIGN.md").read_text()
    start = design.find("### 13.1")
    end = design.find("### 13.2", start)
    if start < 0 or end < 0:
        fail("DESIGN.md: §13.1 (a round on the wire) heading is missing")
        return
    sec = design[start:end]
    kinds = re.findall(r"\b(k\w+)\s*=\s*(\d+)", enum.group(1))
    if not kinds:
        fail("src/net/transport.h: no RoundKind enumerators parsed (drift?)")
    for name, value in kinds:
        if f"`{name}`" not in sec:
            fail(f"DESIGN.md §13.1: RoundKind::{name} is undocumented")
        elif not re.search(r"\|\s*%s\s*\|\s*`%s`" % (value, name), sec):
            fail(f"DESIGN.md §13.1: `{name}` documented with a value other "
                 f"than its enumerator value {value}")


def main() -> int:
    check_coverage()
    check_links()
    check_lock_table()
    check_round_table()
    if errors:
        for e in errors:
            print(f"check_docs: {e}", file=sys.stderr)
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("check_docs: options, metrics, bench flags, links, lock ranks and "
          "round kinds all documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())

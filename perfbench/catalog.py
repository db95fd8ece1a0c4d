"""Seeded inputs for the benchmark workloads, their correctness gate, and
the small helpers run.py and child.py share.

Every document, table and cocycle file the benchmark can hand to the
program comes from a finite catalog.  The seed only chooses among catalog
entries and their order, so `expected.json` (report hashes recorded by
`record_expected.py`) covers every seed, and a seed never changes how much
work a pass does.

Files are written with the library's own constructors: extension classes
come from `enumerate_extension_classes` (split class first), and the Q8 and
dicyclic-12 tables are the total groups of central extensions.
"""

from __future__ import annotations

import hashlib
import random
from importlib import import_module
from itertools import combinations_with_replacement, product

from stacky_brauer.abelian import FinAbGroup

# Modules are fetched by full name because the package namespace shadows
# `stacky_brauer.cohomology` with the function of that name.  Functions are
# looked up on them at call time, so the traced run's wrappers see the
# generator's calls too.
cli = import_module("stacky_brauer.cli")
cohomology = import_module("stacky_brauer.cohomology")
groups = import_module("stacky_brauer.groups")

WORKLOADS = ("class-sweep", "cohomology-cold", "shortcut-batch")

# Group spec -> (file tag, invariant factors of H^2(G, kx)).  H^2(G, kx) is
# the Schur multiplier: trivial for cyclic groups, Z/2 for V4.
GROUPS = {
    "cyclic:2": ("z2", ()),
    "cyclic:3": ("z3", ()),
    "cyclic:4": ("z4", ()),
    "cyclic:5": ("z5", ()),
    "product:cyclic:2*cyclic:2": ("v4", (2,)),
}

# The nonsplit class of S3 with r = 2; its total group is dicyclic of order 12.
DIC12_EXTENSION = ("semidirect_z2:3:2", 2, 1)

# class-sweep: every extension class with |G| * r <= 10.
SWEEP_BASES = (
    ("cyclic:2", (2, 3, 4)),
    ("cyclic:3", (2, 3)),
    ("cyclic:4", (2,)),
    ("cyclic:5", (2,)),
    ("product:cyclic:2*cyclic:2", (2,)),
)

# cohomology-cold: (group spec, degree, coefficients, value by closed form).
#   H^3(G, kx) = H^4(G, Z) = Z/|G| for the periodic groups Q8 and S3;
#   H^2(D4, kx) is the Schur multiplier of D4, Z/2;
#   H^2(G, Z/m) = Hom(H_2(G), Z/m) + Ext(G^ab, Z/m): Z/2 for Dic12
#   (multiplier 0, G^ab = Z/4) and (Z/2)^2 for Q8 with m = 4;
#   H^2(D4, Z/2) = (Z/2)^3 (Poincare series 1/(1-t)^2);
#   H^3((Z/2)^3, Z) = the Schur multiplier of (Z/2)^3 = (Z/2)^3.
# H^3(Q8, kx) takes about 3 s and every other query under 0.7 s, so a pass
# repeats four or five times in a run, the nearest-rank item_p50_s stays
# among the small queries and item_p90_s on H^3(Q8, kx).
COHOMOLOGY_QUERIES = (
    ("table:q8.tbl", 3, "units", (8,)),
    ("semidirect_z2:3:2", 3, "units", (6,)),
    ("semidirect_z2:4:3", 2, "units", (2,)),
    ("table:dic12.tbl", 2, "Z/2", (2,)),
    ("semidirect_z2:4:3", 2, "Z/2", (2, 2, 2)),
    ("table:q8.tbl", 2, "Z/4", (2, 2)),
    ("product:cyclic:2*product:cyclic:2*cyclic:2", 3, "Z", (2, 2, 2)),
)

# shortcut-batch: smooth proper curves, and coprime nodes with |E| = 6.
SMOOTH_GENERA = range(4)
SMOOTH_POINTS = range(5)
SMOOTH_ORDERS = (2, 3, 4)
SMOOTH_MODULI = (2, 3, 4, 5)
SMOOTH_REPEATS = 2          # 2 * 4 * 5 * 4 = 160 smooth documents per pass
COPRIME_NODES = (("cyclic:3", 2), ("cyclic:2", 3))
COPRIME_COUNT = 40          # a minority, so item_p50_s stays inside the smooth cluster
H1_RANKS = range(4)         # H^1(C, Z/r) = (Z/r)^k for a node document


def _factors_text(factors) -> str:
    return ",".join(str(f) for f in factors) if factors else "0"


def group_text(factors) -> str:
    """The program's rendering of a finite abelian group from cyclic orders."""
    return str(FinAbGroup.from_factors(list(factors)))


def node_key(spec: str, r: int, cls: int, k: int) -> str:
    return f"node-{GROUPS[spec][0]}-r{r}-c{cls}-h{k}"


def smooth_key(genus: int, r: int, orders) -> str:
    return f"smooth-g{genus}-r{r}-o{'.'.join(map(str, orders)) or 'none'}"


def cohomology_key(spec: str, degree: int, coeff: str) -> str:
    return f"coh-{spec}-{degree}-{coeff}".replace("/", "")


def _cocycle_name(spec: str, r: int, cls: int) -> str:
    return f"{GROUPS[spec][0]}-r{r}-c{cls}.cocycle"


def node_document(spec: str, r: int, cls: int, k: int) -> str:
    h1 = _factors_text([r] * k)
    ext = "split" if cls == 0 else f"cocycle:{_cocycle_name(spec, r, cls)}"
    return ("[curve]\nsmooth = false\nproper = true\n"
            f"h1_stack = {h1}\nh1_coarse = {h1}\n"
            f"[gerbe]\nr = {r}\n"
            f"[point.node]\ngroup = {spec}\nsingular = true\nextension = {ext}\n")


def smooth_document(genus: int, r: int, orders) -> str:
    lines = ["[curve]", "smooth = true", "proper = true", f"genus = {genus}",
             "[gerbe]", f"r = {r}"]
    for i, n in enumerate(orders):
        lines += [f"[point.p{i}]", f"group = cyclic:{n}", "singular = false",
                  "extension = split"]
    return "\n".join(lines) + "\n"


class Inputs:
    """Files to write into the work directory plus the items of one pass.

    An item is a dict: kind ("brauer" or "cohomology"), key (into
    expected.json), and either doc (document file name) or argv.  The
    expected value, when an independent one exists, is in "want" as the
    program would print it; "want_exit" pins the exit code where the
    workload fixes it.
    """

    def __init__(self):
        self.files = {}
        self.items = []
        self._classes = {}

    def classes(self, spec: str, r: int):
        if (spec, r) not in self._classes:
            G = cli.parse_group_spec(spec)
            self._classes[(spec, r)] = cohomology.enumerate_extension_classes(G, r)
        return self._classes[(spec, r)]

    def add_node(self, spec: str, r: int, cls: int, k: int, **extra):
        key = node_key(spec, r, cls, k)
        if cls:
            rows = self.classes(spec, r)[cls].values
            self.files[_cocycle_name(spec, r, cls)] = (
                f"modulus {r}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows))
        self.files[key + ".txt"] = node_document(spec, r, cls, k)
        # a determined answer is (+)H^2(G_i, kx) (+) H^1(C, Z/r)
        want_if_determined = group_text(GROUPS[spec][1] + (r,) * k)
        self.items.append(dict(kind="brauer", key=key, doc=key + ".txt",
                               determined=want_if_determined, **extra))

    def add_smooth(self, genus: int, r: int, orders):
        key = smooth_key(genus, r, orders)
        self.files[key + ".txt"] = smooth_document(genus, r, orders)
        self.items.append(dict(kind="brauer", key=key, doc=key + ".txt",
                               smooth=[genus, list(orders), r], want_exit=0))

    def add_query(self, spec: str, degree: int, coeff: str, factors):
        self.items.append(dict(kind="cohomology", key=cohomology_key(spec, degree, coeff),
                               argv=[spec, str(degree), coeff],
                               want=group_text(factors), want_exit=0))

    def add_tables(self):
        q8 = None
        for c in self.classes("product:cyclic:2*cyclic:2", 2):
            E = groups.central_extension(c.base, 2, c).total
            if sum(1 for g in range(E.order) if E.element_order(g) == 2) == 1:
                q8 = E   # the only class whose total group has one involution
        spec, r, cls = DIC12_EXTENSION
        nonsplit = self.classes(spec, r)[cls]
        dic12 = groups.central_extension(nonsplit.base, 2, nonsplit).total
        for name, G in (("q8.tbl", q8), ("dic12.tbl", dic12)):
            self.files[name] = f"order {G.order}\n" + "".join(
                " ".join(map(str, row)) + "\n" for row in G.table)


def generate(workload: str, seed: int) -> Inputs:
    """The files and the pass items of a workload; the same seed gives the
    same files and items, byte for byte."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out = Inputs()
    if workload == "class-sweep":
        for spec, moduli in SWEEP_BASES:
            for r in moduli:
                for cls in range(len(out.classes(spec, r))):
                    out.add_node(spec, r, cls, rng.choice(list(H1_RANKS)))
    elif workload == "cohomology-cold":
        out.add_tables()
        for query in COHOMOLOGY_QUERIES:
            out.add_query(*query)
    else:
        for _, genus, npts, r in product(range(SMOOTH_REPEATS), SMOOTH_GENERA,
                                         SMOOTH_POINTS, SMOOTH_MODULI):
            orders = sorted(rng.choice(SMOOTH_ORDERS) for _ in range(npts))
            out.add_smooth(genus, r, orders)
        for j in range(COPRIME_COUNT):
            spec, r = COPRIME_NODES[j % len(COPRIME_NODES)]
            out.add_node(spec, r, 0, rng.choice(list(H1_RANKS)), want_exit=0)
    if workload != "class-sweep":
        # class-sweep keeps the catalog order: its peak RSS depends on which
        # classes run while the cohomology cache is full (79-98 MB over six
        # shuffled orders), so shuffling would swamp peak_rss_mb's bound.
        rng.shuffle(out.items)
    return out


def catalog():
    """Every Inputs any seed can produce, merged: the keys expected.json covers."""
    out = Inputs()
    for spec, moduli in SWEEP_BASES:
        for r in moduli:
            for cls, k in product(range(len(out.classes(spec, r))), H1_RANKS):
                out.add_node(spec, r, cls, k)
    for genus, r, npts in product(SMOOTH_GENERA, SMOOTH_MODULI, SMOOTH_POINTS):
        for orders in combinations_with_replacement(SMOOTH_ORDERS, npts):
            out.add_smooth(genus, r, orders)
    for (spec, r), k in product(COPRIME_NODES, H1_RANKS):
        out.add_node(spec, r, 0, k)
    out.add_tables()
    for query in COHOMOLOGY_QUERIES:
        out.add_query(*query)
    return out


def another_pass_fits(elapsed: float, walls, seconds: float) -> bool:
    """Whole passes only: start one more if it should end within the
    measuring time, judging its length by the median pass so far."""
    ordered = sorted(walls)
    return elapsed + ordered[len(ordered) // 2] <= seconds


def report_argv(item: dict, report_path: str) -> list:
    """The stacky-brauer command line that runs an item."""
    if item["kind"] == "cohomology":
        return ["cohomology", *item["argv"], "--report", report_path]
    return ["brauer", "--input", item["doc"], "--report", report_path]


# ---------------------------------------------------------------------------
# Correctness gate


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summarize(text):
    """What the gate needs from a report text: its sha256 and the fields
    that decide an answer.  None stays None (no report was written)."""
    if text is None:
        return None
    fields = {"sha256": sha256_hex(text.encode())}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key in ("status", "result", "value", "error-code"):
            fields[key] = value
    return fields


def check_item(item: dict, outcome: dict, expected: dict, oracle) -> str:
    """Return why an item's outcome is wrong, or "" when it is correct.

    outcome holds "exit" (exit code), "report" (summarize() of the report)
    and "error" (traceback or output text).  expected maps keys to recorded
    report hashes; oracle(genus, orders, r) gives the independent value
    for a smooth curve.
    """
    error = outcome.get("error") or ""
    if "Traceback" in error:
        return "traceback: " + error.strip().splitlines()[-1]
    fields = outcome.get("report")
    if fields is None:
        return f"no report (exit {outcome.get('exit')})"
    if fields.get("error-code") == "resource-cap" or "resource cap" in error:
        return "resource cap"
    status = fields.get("status")
    exit_code = outcome.get("exit")
    want_exit = {"determined": 0, "partial": 2}.get(status)
    if exit_code != want_exit or exit_code != item.get("want_exit", exit_code):
        return f"exit {exit_code} with status {status}"
    got = fields.get("value" if item["kind"] == "cohomology" else "result")
    if "want" in item and got != item["want"]:
        return f"value {got}, want {item['want']}"
    if status == "determined" and "determined" in item and got != item["determined"]:
        return f"result {got}, want {item['determined']}"
    if "smooth" in item:
        genus, orders, r = item["smooth"]
        want = oracle(genus, tuple(orders), r)
        if got != want:
            return f"result {got}, oracle gives {want}"
    want_sha = expected.get(item["key"])
    if want_sha is None:
        return "no recorded report hash"
    if fields["sha256"] != want_sha:
        return "report bytes differ from the recorded hash"
    return ""

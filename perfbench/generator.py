"""Seeded synthetic terms-of-service documents with planted clauses.

A document is a run of sections: a heading in one of the styles the chunker
detects, then paragraphs of prose separated by blank lines. A share of the
lines are planted clauses built from a small grammar (subject, modal, action,
condition). Each clause has one paraphrased statement that rewords every part
of it, so statements carry no unique marker and share vocabulary with the
filler and with each other: a lexical search can pick the wrong window.

The pipeline sees only the generated bytes. The ground truth (line, clause
text, statement) stays with the benchmark.

The simulated agent decides what to do with a clause through outcome(),
which is seeded on (seed, statement). Each document's clauses are drawn per
outcome so that every document has the agent's drop, mis-citation and
re-sourcing shares exactly, up to rounding, instead of binomial counts. That
keeps the work per document of a given length steady across seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# (clause wording, statement wording, party label) for each grammar slot.
SUBJECTS = (
    ("You", "The user", "user"),
    ("We", "The provider", "we"),
    ("Users", "Every customer", "users"),
    ("The Company", "The service operator", "company"),
)
MODALS = (
    ("must", "is required to"),
    ("may not", "is not permitted to"),
    ("may", "is allowed to"),
    ("will", "commits to"),
    ("shall not", "agrees never to"),
)
ACTIONS = (
    ("share account credentials with third parties",
     "disclose login details to outside parties"),
    ("retain personal data after the account is closed",
     "keep personal information once the account ends"),
    ("suspend access to the service for unpaid fees",
     "block service access when payments are overdue"),
    ("transfer content to affiliated companies",
     "move uploaded material to related businesses"),
    ("review user content before it is published",
     "inspect material prior to its publication"),
    ("refund payments for unused subscription periods",
     "return money for subscription time not used"),
    ("modify these terms at any time",
     "change this agreement whenever it chooses"),
    ("use automated tools to access the service",
     "rely on bots or scripts to reach the platform"),
    ("resell output generated by the service",
     "sell the generated results to others"),
    ("delete inactive accounts",
     "remove accounts that have been dormant"),
    ("notify users of a data breach",
     "inform customers about a security incident"),
    ("limit liability for indirect damages",
     "cap responsibility for consequential losses"),
    ("process payment information through a processor",
     "handle billing details via an outside processor"),
    ("collect usage data for analytics",
     "gather activity records to measure usage"),
    ("disclose personal data to law enforcement",
     "hand personal information to the police"),
    ("reverse engineer any part of the service",
     "decompile or take apart the software"),
    ("charge fees for premium features",
     "bill for the paid tiers of the product"),
    ("export content in a portable format",
     "download material in a reusable file type"),
    ("resolve disputes through binding arbitration",
     "settle disagreements before an arbitrator"),
    ("monitor accounts for abusive behavior",
     "watch profiles for signs of misuse"),
    ("provide customer support by email",
     "offer help through electronic mail"),
    ("store backups in another country",
     "keep copies of data on foreign servers"),
    ("use cookies to remember preferences",
     "place small files that recall settings"),
    ("assign this agreement to a successor",
     "hand the contract over to a new owner"),
    ("publish feedback submitted by users",
     "make customer suggestions public"),
    ("restrict access for users under thirteen",
     "deny entry to children below the minimum age"),
    ("license uploaded content for promotion",
     "grant rights over uploads for marketing"),
    ("terminate service without notice",
     "end the relationship with no warning"),
    ("log IP addresses for security",
     "record network addresses to protect systems"),
    ("send marketing messages by email",
     "deliver promotional mail electronically"),
)
CONDITIONS = (
    ("without prior written consent", "unless written permission comes first"),
    ("unless required by law", "except where legislation demands it"),
    ("after thirty days of notice", "once a month of warning has passed"),
    ("during the subscription term", "while the plan remains active"),
    ("for the purposes described in the privacy policy",
     "for the reasons listed in the privacy notice"),
    ("in accordance with applicable regulations", "as the relevant rules allow"),
    ("at its sole discretion", "entirely as it decides"),
    ("where technically feasible", "when it is practically possible"),
    ("upon request", "when asked"),
    ("within a reasonable time", "promptly"),
    ("to the extent permitted by law", "as far as legislation allows"),
    ("in the event of a security incident", "if systems are compromised"),
)

# Vocabulary shared by filler prose, clauses and statements, so filler lines
# compete with clauses for lexical overlap.
FILLER_WORDS = (
    "service account user provider content output data notice request terms "
    "access review policy privacy consent share suspend transfer limit "
    "payment refund dispute process retain delete modify personal liability "
    "responsible applicable agreement information security subscription "
    "customer material law third parties fees email support time platform "
    "rights license records settings backups cookies arbitration feedback "
    "business software mail systems"
).split()

HEADING_TITLES = (
    "General Terms", "Account Registration", "Privacy and Data",
    "Payments and Refunds", "Acceptable Use", "Content Ownership",
    "Termination", "Dispute Resolution", "Limitation of Liability",
    "Security", "Changes to These Terms", "Support and Contact",
)

CLAUSE_TABLE: dict[str, tuple[str, str]] = {}
"""Clause text -> (statement, party label), for every grammar combination."""

for (subj, subj_p, party), (modal, modal_p), (act, act_p), (cond, cond_p) in (
    itertools.product(SUBJECTS, MODALS, ACTIONS, CONDITIONS)
):
    CLAUSE_TABLE[f"{subj} {modal} {act} {cond}."] = (
        f"{subj_p} {modal_p} {act_p} {cond_p}.", party
    )

STATEMENT_TABLE: dict[str, str] = {s: c for c, (s, _) in CLAUSE_TABLE.items()}
"""Statement -> clause text; the inverse of CLAUSE_TABLE."""


def draw(seed: int, key: str, kind: str) -> random.Random:
    """The seeded noise source for one clause (key) and request kind."""
    return random.Random(f"{seed}|{key}|{kind}")


def outcome(seed: int, statement: str, rates: dict) -> str:
    """What the agent does with a clause: "drop" it, cite it correctly
    ("cite"), or mis-cite it and, when asked to re-source it, answer with the
    true line ("miscite:true"), nothing ("miscite:empty") or a wrong line
    ("miscite:wrong")."""
    u = draw(seed, statement, "parse").random()
    if u < rates["drop"]:
        return "drop"
    if u >= rates["drop"] + rates["miscite"]:
        return "cite"
    v = draw(seed, statement, "resource").random()
    success = rates["resource_success"]
    if v < success:
        return "miscite:true"
    return "miscite:empty" if v < success + (1 - success) / 2 else "miscite:wrong"


def _quotas(n: int, rates: dict) -> dict[str, int]:
    """Clauses per outcome in a document with n clauses."""
    drop = round(rates["drop"] * n)
    miscite = round(rates["miscite"] * n)
    true = round(rates["resource_success"] * miscite)
    empty = round((miscite - true) / 2)
    return {"drop": drop, "cite": n - drop - miscite, "miscite:true": true,
            "miscite:empty": empty, "miscite:wrong": miscite - true - empty}


def _buckets(seed: int, rates: dict) -> dict[str, list[str]]:
    """Every clause text, grouped by its outcome."""
    buckets: dict[str, list[str]] = {}
    for text, (statement, _) in CLAUSE_TABLE.items():
        buckets.setdefault(outcome(seed, statement, rates), []).append(text)
    return buckets


@dataclass(frozen=True)
class PlantedClause:
    line: int
    text: str
    statement: str


@dataclass(frozen=True)
class GeneratedDoc:
    name: str
    raw: bytes
    line_count: int
    clauses: tuple[PlantedClause, ...]


def _heading(rng: random.Random, section: int) -> str:
    title = rng.choice(HEADING_TITLES)
    style = section % 3
    if style == 0:
        return f"## {title}"
    if style == 1:
        return f"{section + 1}. {title}"
    return title.upper()


def _filler(rng: random.Random) -> str:
    words = [rng.choice(FILLER_WORDS) for _ in range(rng.randint(4, 10))]
    return " ".join(words).capitalize() + "."


def _layout(rng: random.Random, n_lines: int) -> list[str | None]:
    """Exactly n_lines entries: heading text, "" for blank, None for a
    content slot. The last line is always a content slot."""
    layout: list[str | None] = []
    section = 0
    while len(layout) < n_lines:
        layout.extend([_heading(rng, section), ""])
        for _ in range(rng.randint(3, 6)):
            layout.extend([None] * rng.randint(2, 6))
            layout.append("")
        section += 1
    layout = layout[:n_lines]
    layout[-1] = None
    return layout


def generate_doc(rng: random.Random, name: str, n_lines: int, clause_share: float,
                 buckets: dict[str, list[str]], rates: dict) -> GeneratedDoc:
    """buckets: from _buckets for the same seed and rates."""
    layout = _layout(rng, n_lines)
    slots = [i for i, entry in enumerate(layout) if entry is None]
    n_clauses = min(len(slots), round(clause_share * n_lines))
    clause_slots = set(rng.sample(slots, n_clauses))
    # Buckets are disjoint and sampled without replacement, so no two
    # clauses of a document share a statement and dedupe never merges them.
    picks = [text for kind, k in _quotas(n_clauses, rates).items()
             for text in rng.sample(buckets[kind], k)]
    rng.shuffle(picks)
    texts = iter(picks)
    lines: list[str] = []
    clauses: list[PlantedClause] = []
    for i, entry in enumerate(layout):
        if i in clause_slots:
            text = next(texts)
            lines.append(text)
            clauses.append(PlantedClause(i + 1, text, CLAUSE_TABLE[text][0]))
        elif entry is None:
            lines.append(_filler(rng))
        else:
            lines.append(entry)
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    return GeneratedDoc(name, raw, n_lines, tuple(clauses))


def generate_pool(seed: int, count: int, min_lines: int, max_lines: int,
                  clause_share: float, rates: dict) -> list[GeneratedDoc]:
    """count documents whose lengths are spread evenly over
    [min_lines, max_lines] in a seeded order, so every seed sees the same
    length distribution and only the content varies. rates: the agent's, as
    passed to outcome()."""
    rng = random.Random(f"perfbench-generator|{seed}")
    if count == 1:
        lengths = [(min_lines + max_lines) // 2]
    else:
        step = (max_lines - min_lines) / (count - 1)
        lengths = [round(min_lines + i * step) for i in range(count)]
    rng.shuffle(lengths)
    buckets = _buckets(seed, rates)
    return [
        generate_doc(rng, f"ToS_{seed}_{i:03d}.txt", n, clause_share, buckets, rates)
        for i, n in enumerate(lengths)
    ]

"""Seeded input generators for the three workloads.

Every generator is a pure function of its seed and sizes. None of them uses
`claimkit.synthetic`, so changes to the package's test corpora leave the
benchmark's inputs alone. The make-up of each input is known by
construction and returned next to the records, so the workloads can check
the program's outputs against it.

Text is built from pseudo-words. Claim words are consonant-vowel syllables
that end in a vowel; filler words end in "n", so filler can never supply a
withheld claim word and push a clean record over the lexical-overlap gate.
"""

from __future__ import annotations

import json
import random
import unicodedata
from dataclasses import dataclass

_SYLLABLES = ("ba", "ce", "di", "fo", "gu", "ka", "le", "mi", "no", "pu",
              "ra", "se", "ti", "vo", "zu", "ha", "je", "wi", "ro", "te",
              "sa", "ne", "lo", "ku")
LABELS = ("Supported", "Refuted")
FUNNEL_SOURCES = ("encyclopedia", "newswire", "forum")
ABSTENTION = "I don't know."

# Share of the funnel corpus given to each planted kind.
RULE_VIOLATION_SHARES = {
    "too-few-passages": 0.02,
    "too-short": 0.02,
    "too-long": 0.0025,
    "high-overlap": 0.02,
    "too-few-entities": 0.02,
}
NEAR_DUPLICATE_SHARE = 0.04
EXACT_COPY_SHARE = 0.02
HOLDOUT_COLLISION_SHARE = 0.03
LONG_EVIDENCE_SHARE = 0.03
# Every long record reaches the output unless dropped on the way, so near
# copies planted among them expose a missed duplicate in the output itself.
LONG_NEAR_DUPLICATE_SHARE = 0.015
BELOW_LONG_SHARE = 0.01  # evidence of 2500-2950 tokens, just under the band
LONG_EVIDENCE_TOKENS = 3000  # the funnel's augmentation threshold


# --- text -------------------------------------------------------------------


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))


_FILLER_WORDS = [a + b + "n" for a in _SYLLABLES for b in _SYLLABLES]


def _name(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(3)).capitalize()


def _filler_sentence(rng: random.Random, n_words: int) -> str:
    return " ".join(rng.choices(_FILLER_WORDS, k=n_words)) + "."


def _filler_passages(rng: random.Random, n_passages: int, n_tokens: int) -> list[str]:
    """n_passages filler passages holding n_tokens words in all."""
    base, extra = divmod(n_tokens, n_passages)
    return [_filler_sentence(rng, base + (1 if i < extra else 0)) for i in range(n_passages)]


def _strip_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokens(text: str) -> list[str]:
    """Whitespace tokens with edge punctuation removed, as documented for claim text."""
    return [t for t in (_strip_punct(raw) for raw in text.split()) if t]


def shingles(text: str) -> frozenset[str]:
    """Lowercased 3-word shingles as strings; the whole text below 3 words."""
    toks = [t.lower() for t in tokens(text)]
    if len(toks) < 3:
        return frozenset({" ".join(toks)})
    return frozenset(" ".join(toks[i:i + 3]) for i in range(len(toks) - 2))


def jaccard(a: frozenset, b: frozenset) -> float:
    return len(a & b) / len(a | b) if (a or b) else 0.0


# A claim is a list of 28 words: "The", two words, a two-word capitalised
# name, three words, "near", a capitalised place, "in", a year, 16 words.
# That gives two entity spans and 26 distinct content tokens; the evidence
# leaves out the 5 at WITHHELD, which puts the lexical overlap at 21/26,
# well under the 0.9 gate.
PLACE = 9
WITHHELD = frozenset({5, 6, 7, 12, 13})


def _claim(rng: random.Random) -> list[str]:
    return (["The", _word(rng), _word(rng), _name(rng), _name(rng)]
            + [_word(rng) for _ in range(3)]
            + ["near", _name(rng), "in", str(rng.randint(1700, 2020))]
            + [_word(rng) for _ in range(16)])


def _text(claim: list[str]) -> str:
    return " ".join(claim) + "."


def _variant(claim: list[str], rng: random.Random) -> list[str]:
    """A near-copy at 3-shingle Jaccard >= 0.9: the last word replaced
    (25/27 shared shingles) or one word appended (26/27)."""
    words = list(claim)
    if rng.random() < 0.5:
        words[-1] = _word(rng)
    else:
        words.append(_word(rng))
    return words


def _lead_passage(claim: list[str], rng: random.Random, withhold: bool = True) -> str:
    skip = WITHHELD if withhold else frozenset()
    kept = [w for i, w in enumerate(claim[1:], start=1) if i not in skip]
    return "Records state that " + " ".join(kept) + " " + _filler_sentence(rng, 12)


def _evidence(claim: list[str], rng: random.Random, n_passages: int, n_tokens: int,
              withhold: bool = True) -> list[str]:
    lead = _lead_passage(claim, rng, withhold)
    rest = max(n_passages - 1, 1)
    need = max(n_tokens - len(lead.split()), rest)
    return [lead] + _filler_passages(rng, rest, need)


def _row(rid: str, claim: list[str], evidence: list[str], source: str,
         label: str | None, **extra) -> dict:
    row = {"id": rid, "claim": _text(claim), "evidence": evidence, "source": source, "label": label}
    row.update(extra)
    return row


def write_jsonl(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


# --- funnel -----------------------------------------------------------------


@dataclass
class FunnelInputs:
    corpus: list[dict]
    holdout: list[dict]
    violations: dict[str, int]  # planted rule-gate rejections by reason
    collision_ids: set[str]  # train ids planted as holdout collisions


def funnel_inputs(seed: int, n_corpus: int, n_holdout: int) -> FunnelInputs:
    rng = random.Random(f"funnel:{seed}")
    counts = {kind: max(1, round(share * n_corpus))
              for kind, share in RULE_VIOLATION_SHARES.items()}
    n_near = round(NEAR_DUPLICATE_SHARE * n_corpus)
    n_copy = round(EXACT_COPY_SHARE * n_corpus)
    n_collide = min(round(HOLDOUT_COLLISION_SHARE * n_corpus), n_holdout)
    n_long = round(LONG_EVIDENCE_SHARE * n_corpus)
    n_long_near = min(round(LONG_NEAR_DUPLICATE_SHARE * n_corpus), n_long)
    n_below = round(BELOW_LONG_SHARE * n_corpus)
    n_clean = (n_corpus - sum(counts.values()) - n_near - n_copy - n_collide - n_long
               - n_long_near - n_below)
    if n_clean < max(n_near, n_copy):
        raise ValueError("corpus too small for the planted make-up")

    def meta() -> tuple[str, str]:
        return rng.choice(FUNNEL_SOURCES), rng.choice(LABELS)

    def normal_tokens() -> int:
        return rng.randint(240, 420)

    rows: list[dict] = []
    clean: list[tuple[list[str], list[str], str, str]] = []
    for _ in range(n_clean):
        c = _claim(rng)
        ev = _evidence(c, rng, rng.randint(3, 5), normal_tokens())
        clean.append((c, ev, *meta()))
    rows.extend(_row("", c, ev, src, lab) for c, ev, src, lab in clean)

    long_rows, long_claims = [], []
    for _ in range(n_long):
        c = _claim(rng)
        src, lab = meta()
        long_claims.append(c)
        long_rows.append(_row("", c, _evidence(c, rng, rng.randint(4, 8),
                                               rng.randint(3100, 3600)), src, lab))
    for i in rng.sample(range(n_long), n_long_near):
        base = long_rows[i]
        long_rows.append(_row("", _variant(long_claims[i], rng), list(base["evidence"]),
                              base["source"], base["label"]))
    rows.extend(long_rows)
    for _ in range(n_below):
        c = _claim(rng)
        rows.append(_row("", c, _evidence(c, rng, rng.randint(4, 8), rng.randint(2500, 2950)),
                         *meta()))

    # Distinct bases, so no two planted copies of one claim meet below J 0.9.
    for c, ev, src, lab in rng.sample(clean, n_near):
        rows.append(_row("", _variant(c, rng), list(ev), src, lab))
    for c, ev, src, lab in rng.sample(clean, n_copy):
        rows.append(_row("", c, list(ev), src, lab))

    for kind, n in counts.items():
        for _ in range(n):
            c = _claim(rng)
            src, lab = meta()
            if kind == "too-few-passages":
                ev = _evidence(c, rng, 2, normal_tokens())
            elif kind == "too-short":
                ev = _evidence(c, rng, 3, rng.randint(60, 150))
            elif kind == "too-long":
                ev = _evidence(c, rng, rng.randint(3, 6), rng.randint(10200, 10600))
            elif kind == "high-overlap":
                ev = _evidence(c, rng, rng.randint(3, 5), normal_tokens(), withhold=False)
            else:  # too-few-entities: a lowercase place leaves one entity span
                c[PLACE] = c[PLACE].lower()
                ev = _evidence(c, rng, rng.randint(3, 5), normal_tokens())
            rows.append(_row("", c, ev, src, lab, meta={"planted": kind}))

    holdout: list[dict] = []
    hold_claims = []
    for i in range(n_holdout):
        c = _claim(rng)
        hold_claims.append(c)
        holdout.append(_row(f"hold-{i:05d}", c, _evidence(c, rng, 3, normal_tokens()),
                            "holdout", rng.choice(LABELS)))
    collide_rows = []
    for c in rng.sample(hold_claims, n_collide):
        v = _variant(c, rng)
        src, lab = meta()
        collide_rows.append(_row("", v, _evidence(v, rng, rng.randint(3, 5), normal_tokens()),
                                 src, lab))
    rows.extend(collide_rows)

    rng.shuffle(rows)
    for i, row in enumerate(rows):
        row["id"] = f"fun-{i:06d}"
    return FunnelInputs(
        corpus=rows,
        holdout=holdout,
        violations=counts,
        collision_ids={r["id"] for r in collide_rows},
    )


# --- select -----------------------------------------------------------------


def select_pool(seed: int, per_label: int) -> list[dict]:
    """A labeled pool of distinct claims in two cells: (label, "pool")."""
    rng = random.Random(f"select:{seed}")
    rows = []
    for label in LABELS:
        for _ in range(per_label):
            c = _claim(rng)
            rows.append(_row("", c, _filler_passages(rng, 3, 60), "pool", label))
    rng.shuffle(rows)
    for i, row in enumerate(rows):
        row["id"] = f"sel-{i:06d}"
    return rows


# --- score ------------------------------------------------------------------

QUESTION_POOL = 6
ABSTENTIONS_PER_GROUP = 3
TRACE_KINDS = ("well_formed", "truncated", "trailing_text", "no_think",
               "dangling_question", "bad_verdict")
CONDITIONS = ("has_think", "think_before_question", "has_question", "qa_counts_equal",
              "qa_alternation", "one_verification", "valid_verdict", "well_nested",
              "nothing_after_verdict", "min_two_cycles")


@dataclass
class Rollout:
    claim_id: str
    kind: str
    questions: list[str]  # every non-empty <question> body, in order
    answers: list[str]
    verdict: str | None  # the verdict the trace grammar yields, or None
    conditions: dict[str, bool]
    text: str


def _render(kind: str, questions: list[str], answers: list[str], verdict: str,
            rng: random.Random) -> tuple[str, dict[str, bool], str | None]:
    """Trace text, its expected condition checklist, and its parsed verdict."""
    n = len(answers)
    parts = [] if kind == "no_think" else [f"<think>{_filler_sentence(rng, 8)}</think>"]
    for i, (q, a) in enumerate(zip(questions, answers)):
        parts.append(f"<question>{q}</question>")
        parts.append(f"<answer>{a}</answer>")
        if kind != "no_think" and i < n - 1:
            parts.append(f"<think>{_filler_sentence(rng, 6)}</think>")
    if kind == "dangling_question":
        parts.append(f"<question>{questions[-1]}</question>")
    shown = "Unclear" if kind == "bad_verdict" else verdict
    if kind != "truncated":
        parts.append(f"<verification>{shown}</verification>")
    text = "\n\n".join(parts)
    if kind == "trailing_text":
        text += "\n\nThat concludes the check."

    cond = dict.fromkeys(CONDITIONS, True)
    cond["min_two_cycles"] = n >= 2
    if kind == "truncated":
        cond.update(one_verification=False, valid_verdict=False, nothing_after_verdict=False)
    elif kind == "trailing_text":
        cond["nothing_after_verdict"] = False
    elif kind == "no_think":
        cond.update(has_think=False, think_before_question=False)
    elif kind == "dangling_question":
        cond.update(qa_counts_equal=False, qa_alternation=False, min_two_cycles=False)
    elif kind == "bad_verdict":
        cond["valid_verdict"] = False
    parsed = None if kind in ("truncated", "bad_verdict") else verdict
    return text, cond, parsed


@dataclass
class ScoreInputs:
    claims: list[dict]
    rollouts: list[Rollout]  # grouped by claim id, in file order


def score_inputs(seed: int, n_groups: int, group_size: int, claim_ids: list[str]) -> ScoreInputs:
    """Claims with evidence and a silver question count, and group_size
    rollout traces per claim.

    Every group has the same shape, so the judge work per rollout does not
    depend on the seed: question counts spread evenly over 1..5, one
    malformed trace (its kind rotating over the groups), and
    ABSTENTIONS_PER_GROUP "I don't know." answers. Rollouts of one claim draw
    their questions from a shared pool of QUESTION_POOL, so judge prompts
    repeat across a group. Verdicts, question choice and order are seeded.
    """
    if len(claim_ids) != n_groups:
        raise ValueError("need one id per group")
    rng = random.Random(f"score:{seed}")
    counts = [1 + (i * 5) // group_size for i in range(group_size)]
    claims, rollouts = [], []
    for g, cid in enumerate(claim_ids):
        c = _claim(rng)
        gold = rng.choice(LABELS)
        claims.append(_row(cid, c, _evidence(c, rng, 3, rng.randint(90, 140)), "score", gold,
                           silver_question_count=rng.randint(1, 4)))
        pool = [f"Did {c[3]} {c[4]} {_word(rng)} the {_word(rng)} near {c[PLACE]}?"
                for _ in range(QUESTION_POOL)]
        kinds = ["well_formed"] * (group_size - 1) + [TRACE_KINDS[1 + g % (len(TRACE_KINDS) - 1)]]
        shape = list(zip(rng.sample(counts, group_size), kinds))  # malformed gets a random n
        rng.shuffle(shape)
        abstain = set(rng.sample(range(sum(counts)), ABSTENTIONS_PER_GROUP))
        slot = 0
        for n, kind in shape:
            qs = rng.sample(pool, n + (1 if kind == "dangling_question" else 0))
            answers = []
            for _ in range(n):
                answers.append(ABSTENTION if slot in abstain
                               else f"The document says {_word(rng)} {_word(rng)} {_word(rng)}.")
                slot += 1
            verdict = gold if rng.random() < 0.7 else LABELS[1 - LABELS.index(gold)]
            text, cond, parsed = _render(kind, qs, answers, verdict, rng)
            rollouts.append(Rollout(cid, kind, qs, answers, parsed, cond, text))
    return ScoreInputs(claims=claims, rollouts=rollouts)

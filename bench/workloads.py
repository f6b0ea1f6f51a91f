"""Seeded input generators for the benchmark workloads.

Everything here depends only on the standard library and the workload
seed, so a change to the program or to its test helpers can never change
a workload. Each generator writes the dump, the classifier training
sources and a pipeline config into a directory, and returns a `Plan`:
what it planted, which the correctness checks compare the program's
outputs against.

Shapes:

* web: a crawl dump shaped like the end-to-end acceptance workspace. A few
  near-duplicate pairs and exact-duplicate triples, quality / code / math
  marker words planted at known rates, a few documents too short to keep
  and a few malformed lines.
* boilerplate: most documents fall in a few large blocks. A block is
  either byte-identical copies of one text under different URLs, or
  templated near-copies of one text in which a single word varies from
  copy to copy. The remaining documents are unique.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path

QUALITY_MARKER = "premiumsignal"
CODE_MARKER = "codesignal"
MATH_MARKER = "mathsignal"
MARKER_WORDS = {"quality": QUALITY_MARKER, "code": CODE_MARKER, "math": MATH_MARKER}
MARKER_RATES = {"quality": 0.4, "code": 0.5, "math": 0.1}

WORDS_PER_LINE = 12
STAGE_SHARES = (("i", "0.15", 0.0), ("ii", "0.45", 0.0), ("iii", "0.30", 0.5), ("iv", "0.10", 0.9))
MIXTURE = {"code": "0.3", "other": "0.7"}
LAMBDAS = {"freq:occurrence": 0.4, "clf:web": 0.6}
TOP_K = 3


@dataclass(frozen=True)
class Workload:
    """Size and execution settings of one workload."""

    shape: str  # "web" or "boilerplate"
    workers: int
    n_unique: int  # documents that are neither duplicates nor unusable
    total_tokens: int
    shard_tokens: int
    n_near_pairs: int = 0
    n_exact_triples: int = 0
    n_unusable: int = 0
    blocks: tuple[tuple[str, int], ...] = ()  # (kind, copies)
    edit_loop: bool = False  # cold run, two edited reruns, one unchanged rerun


WORKLOADS = {
    "web-w2": Workload(
        shape="web", workers=2, n_unique=9_350, total_tokens=400_000, shard_tokens=50_000,
        n_near_pairs=150, n_exact_triples=100, n_unusable=50,
    ),
    "boilerplate-w1": Workload(
        shape="boilerplate", workers=1, n_unique=2_000, total_tokens=200_000, shard_tokens=50_000,
        blocks=(("exact", 500), ("exact", 300), ("template", 350), ("template", 200)),
    ),
    "edit-rerun-w1": Workload(
        shape="web", workers=1, n_unique=3_200, total_tokens=160_000, shard_tokens=20_000,
        n_near_pairs=50, n_exact_triples=30, n_unusable=20, edit_loop=True,
    ),
}

# The same workloads at a size that runs in a second or two, for the
# benchmark's own tests.
TINY = {
    "web-w2": Workload(
        shape="web", workers=2, n_unique=300, total_tokens=20_000, shard_tokens=4_000,
        n_near_pairs=10, n_exact_triples=6, n_unusable=4,
    ),
    "boilerplate-w1": Workload(
        shape="boilerplate", workers=1, n_unique=200, total_tokens=15_000, shard_tokens=4_000,
        blocks=(("exact", 30), ("template", 20)),
    ),
    "edit-rerun-w1": Workload(
        shape="web", workers=1, n_unique=250, total_tokens=16_000, shard_tokens=3_000,
        n_near_pairs=8, n_exact_triples=4, n_unusable=3, edit_loop=True,
    ),
}


@dataclass
class Plan:
    """What the generator planted, keyed by URL (unique per input record)."""

    lines_written: int = 0
    malformed: int = 0
    text: dict[str, str] = field(default_factory=dict)
    family: dict[str, int] = field(default_factory=dict)  # one id per generated base text
    markers: dict[str, frozenset] = field(default_factory=dict)
    unusable: set = field(default_factory=set)
    exact_groups: list[list[str]] = field(default_factory=list)
    near_pairs: list[tuple[str, str]] = field(default_factory=list)
    blocks: list[tuple[str, list[str]]] = field(default_factory=list)
    unique: list[str] = field(default_factory=list)


def make_vocab(rng: random.Random, size: int) -> list[str]:
    vocab: set[str] = set()
    while len(vocab) < size:
        vocab.add("".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 8))))
    return sorted(vocab)


def lay_out(words: list[str]) -> str:
    return "\n".join(
        " ".join(words[i : i + WORDS_PER_LINE]) for i in range(0, len(words), WORDS_PER_LINE)
    )


def draw_markers(rng: random.Random) -> frozenset:
    return frozenset(name for name, rate in MARKER_RATES.items() if rng.random() < rate)


def with_markers(words: list[str], markers: frozenset) -> str:
    text = lay_out(words)
    marks = [MARKER_WORDS[m] for m in ("quality", "code", "math") if m in markers]
    if marks:
        text += "\n" + " ".join(w for w in marks for _ in range(3))
    return text


def fresh_word(rng: random.Random) -> str:
    return "zvar" + "".join(rng.choices(string.ascii_lowercase, k=6))


class _Dump:
    """Collects (text, family, markers) entries, then shuffles and writes them."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.entries: list[tuple[str, int, frozenset, str]] = []  # text, family, markers, group key
        self.families = 0

    def new_family(self) -> int:
        self.families += 1
        return self.families

    def add(self, text: str, family: int, markers: frozenset, group: str) -> None:
        self.entries.append((text, family, markers, group))

    def write(self, path: Path, plan: Plan, malformed: bool) -> None:
        self.rng.shuffle(self.entries)
        groups: dict[str, list[str]] = {}
        bad_lines = _malformed_lines() if malformed else []
        # Malformed lines go at fixed spacing through the dump.
        every = max(1, len(self.entries) // (len(bad_lines) + 1))
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (text, family, markers, group) in enumerate(self.entries):
                url = f"https://site{idx % 53}.example/doc/{idx}"
                minute, second = idx // 60 % 60, idx % 60
                rec = {
                    "url": url,
                    "text": text,
                    "crawl_time": f"2024-03-01T10:{minute:02d}:{second:02d}Z",
                    "snapshot_id": f"S{idx % 7}",
                    "language": "en",
                }
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
                plan.lines_written += 1
                plan.text[url] = text
                plan.family[url] = family
                plan.markers[url] = markers
                groups.setdefault(group, []).append(url)
                if bad_lines and (idx + 1) % every == 0:
                    fh.write(bad_lines.pop() + "\n")
                    plan.lines_written += 1
                    plan.malformed += 1
        self.groups = groups


def _malformed_lines() -> list[str]:
    """One line per ingest reject reason the dump exercises."""
    ok = {"url": "https://bad.example/x", "text": "some text", "crawl_time": "2024-01-01T00:00:00Z",
          "snapshot_id": "S0"}
    return [
        "this line is not json",
        json.dumps({**ok, "text": "   "}),
        json.dumps({k: v for k, v in ok.items() if k != "snapshot_id"}),
        json.dumps({**ok, "crawl_time": "yesterday"}),
    ]


def _web(rng: random.Random, w: Workload, dump_path: Path) -> Plan:
    vocab = make_vocab(rng, 4000)
    dump = _Dump(rng)
    for p in range(w.n_near_pairs):
        family = dump.new_family()
        base = rng.choices(vocab, k=100)
        variant = list(base)
        for pos in ([25] if p % 2 == 0 else [25, 75]):
            variant[pos] = fresh_word(rng)
        markers = draw_markers(rng)
        dump.add(with_markers(base, markers), family, markers, f"near{p}")
        dump.add(with_markers(variant, markers), family, markers, f"near{p}")
    for t in range(w.n_exact_triples):
        family = dump.new_family()
        markers = draw_markers(rng)
        text = with_markers(rng.choices(vocab, k=100), markers)
        for _ in range(3):
            dump.add(text, family, markers, f"exact{t}")
    for k in range(w.n_unusable):
        dump.add(f"too short to keep number {k}", dump.new_family(), frozenset(), "unusable")
    for _ in range(w.n_unique):
        markers = draw_markers(rng)
        dump.add(with_markers(rng.choices(vocab, k=rng.randint(60, 160)), markers),
                 dump.new_family(), markers, "unique")
    plan = Plan()
    dump.write(dump_path, plan, malformed=True)
    g = dump.groups
    plan.near_pairs = [tuple(g[f"near{p}"]) for p in range(w.n_near_pairs)]
    plan.exact_groups = [g[f"exact{t}"] for t in range(w.n_exact_triples)]
    plan.unusable = set(g.get("unusable", []))
    plan.unique = g.get("unique", [])
    return plan


def _slot_word(rng: random.Random, copy: int) -> str:
    """A word unique within its block (base-26 copy number) of random length."""
    prefix = "".join(string.ascii_lowercase[copy // 26**i % 26] for i in range(3))
    return prefix + "".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 7)))


def _boilerplate(rng: random.Random, w: Workload, dump_path: Path) -> Plan:
    vocab = make_vocab(rng, 4000)
    dump = _Dump(rng)
    for b, (kind, copies) in enumerate(w.blocks):
        family = dump.new_family()
        markers = draw_markers(rng)
        words = rng.choices(vocab, k=100)
        for c in range(copies):
            if kind == "template":
                words[50] = _slot_word(rng, c)
            dump.add(with_markers(words, markers), family, markers, f"block{b}")
    for _ in range(w.n_unique):
        markers = draw_markers(rng)
        dump.add(with_markers(rng.choices(vocab, k=rng.randint(60, 160)), markers),
                 dump.new_family(), markers, "unique")
    plan = Plan()
    dump.write(dump_path, plan, malformed=False)
    plan.blocks = [(kind, dump.groups[f"block{b}"]) for b, (kind, _) in enumerate(w.blocks)]
    plan.unique = dump.groups.get("unique", [])
    return plan


def _training_sources(rng: random.Random, root: Path) -> dict[str, tuple[str, str]]:
    vocab = make_vocab(rng, 800)
    sources = {}
    for name, marker in (("web", QUALITY_MARKER), ("code", CODE_MARKER), ("math", MATH_MARKER)):
        pos = [lay_out(rng.choices(vocab, k=50)) + f" {marker} {marker} {marker}" for _ in range(80)]
        neg = [lay_out(rng.choices(vocab, k=50)) for _ in range(80)]
        for side, texts in (("pos", pos), ("neg", neg)):
            with open(root / f"{name}_{side}.jsonl", "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps({"text": t}) + "\n" for t in texts)
        sources[name] = (f"{name}_pos.jsonl", f"{name}_neg.jsonl")
    return sources


def make_config(w: Workload, sources: dict[str, tuple[str, str]]) -> dict:
    """Pipeline config with paths relative to the workload directory."""

    def clf(name: str, seed: int, tag: str = "") -> dict:
        spec = {"model_id": name, "positives": sources[name][0], "negatives": sources[name][1],
                "hyper": {"epochs": 12, "seed": seed}}
        return {**spec, "tag": tag} if tag else spec

    return {
        "input": ["dump.jsonl"],
        "work_dir": "work",
        "master_seed": 4242,
        "workers": w.workers,
        "dedup": {"top_k": TOP_K},
        "quality": {
            "tag_threshold": 0.5,
            "classifiers": [clf("web", 101)],
            "domain_classifiers": [clf("code", 102, "code"), clf("math", 103, "math")],
        },
        "sampling": {"policies": [
            {"signal": "freq:occurrence", "transform": "log2_sublinear", "cap": 6,
             "lambda": LAMBDAS["freq:occurrence"]},
            {"signal": "clf:web", "transform": "threshold", "threshold": 0.9, "boost": 5.0,
             "lambda": LAMBDAS["clf:web"]},
        ]},
        "curriculum": {
            "total_token_budget": w.total_tokens,
            "shard_tokens": w.shard_tokens,
            "stages": [
                {"stage_id": sid, "token_share": share, "quality_threshold": thr, "mixture": MIXTURE}
                for sid, share, thr in STAGE_SHARES
            ],
        },
        "train_prep": {
            "sequence_length": 512,
            "rope_stage": "pretrain",
            "vocab_size": 5000,
            "lr_schedule": {"peak_lr": 1e-3, "warmup_end": 100, "constant_end": 200,
                            "slow_decay_end": 300, "slow_decay_floor": 5e-4, "end_step": 350,
                            "final_lr": 0.0},
        },
    }


def edited_configs(config: dict) -> list[dict]:
    """The edit loop's configs after each edit: first a lower token budget
    only, then also new sampling lambdas."""
    lower = json.loads(json.dumps(config))
    lower["curriculum"]["total_token_budget"] = config["curriculum"]["total_token_budget"] * 5 // 8
    relambda = json.loads(json.dumps(lower))
    for policy, lam in zip(relambda["sampling"]["policies"], (0.7, 0.3)):
        policy["lambda"] = lam
    return [lower, relambda]


def write_config(path: Path, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)


def generate(w: Workload, seed: int, root: Path) -> tuple[Plan, dict]:
    """Write the workload's inputs and config into `root`; returns (plan, config)."""
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"corpusprep-bench/{w.shape}/{seed}")
    make = _web if w.shape == "web" else _boilerplate
    plan = make(rng, w, root / "dump.jsonl")
    config = make_config(w, _training_sources(random.Random(f"training/{seed}"), root))
    write_config(root / "config.json", config)
    return plan, config

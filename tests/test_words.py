"""Word paths on mixed-case and non-ASCII text.

The synthetic corpora elsewhere hold only lowercase ASCII words, so a
case or Unicode slip in a path that splits and hashes words would pass
them. These tests pin a whole run's bytes on a dump that mixes both in.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusprep.classifier import ngram_hashes
from corpusprep.dedup import shingle
from corpusprep.hashing import WordTable, hash64
from corpusprep.pipeline import PipelineConfig, run_pipeline, strip_timing
from corpusprep.quality import TextStats, text_stats
from corpusprep.tokenizer import WhitespaceTokenizer

from conftest import make_pipeline_workspace
from test_dedup import reference_shingles

# Words whose lowercase forms differ from a plain ASCII lowering, or that
# hold characters str.split does not split on.
ODD_WORDS = [
    "Straße", "STRASSE", "İstanbul", "ISTANBUL", "ΟΔΟΣ", "ὈΔΌΣ", "σοφός", "Über",
    "ÜBER", "Ёж", "ёж", "naïve", "co\u00adop", "zero\u200bwidth", "ǅemal", "ﬁne",
]
# Separators str.split splits on besides the ASCII ones.
ODD_SPACES = ["\u00a0", "\u2003", "\u3000", "\x1c", "\u2028"]
# Every character str.isspace accepts: str.split splits on exactly these.
SPACES = "".join(c for c in map(chr, range(0x110000)) if c.isspace())


def mix_case(text: str) -> str:
    """`text` with some words capitalized, upper-cased or swapped for an
    ODD_WORDS entry, and some single spaces swapped for an ODD_SPACES one.
    What happens to a word follows from its place in the text and the word
    itself, so exact copies stay exact and near copies stay near."""
    out = []
    k = 0
    for line in text.split("\n"):
        words = line.split(" ")
        for i, word in enumerate(words):
            roll = _ROLLS[k % len(_ROLLS)]
            k += 1
            if roll < 0.08:
                word = word.capitalize()
            elif roll < 0.12:
                word = word.upper()
            elif roll < 0.17:
                word = ODD_WORDS[sum(map(ord, word)) % len(ODD_WORDS)]
            if i and roll > 0.95:
                word = ODD_SPACES[sum(map(ord, word)) % len(ODD_SPACES)] + word
            elif i:
                word = " " + word
            words[i] = word
        out.append("".join(words))
    return "\n".join(out)


_ROLLS = np.random.default_rng(2024).random(997).tolist()


def mixed_workspace(root: Path, n_docs: int = 300) -> PipelineConfig:
    """make_pipeline_workspace with every dump text passed through mix_case."""
    config_path, config = make_pipeline_workspace(root, n_docs=n_docs, total_tokens=40_000)
    dump = Path(config["input"][0])
    lines = []
    for line in dump.read_text(encoding="utf-8").splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            lines.append(line)
            continue
        if rec.get("text"):
            rec["text"] = mix_case(rec["text"])
        lines.append(json.dumps(rec, ensure_ascii=False))
    dump.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return PipelineConfig.from_file(config_path)


def work_digests(work: Path) -> dict[str, str]:
    """sha256 of each work file; JSON markers and reports with their
    timing fields stripped."""
    out = {}
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith(".done.json") or path.name == "report.json":
            data = json.dumps(strip_timing(json.loads(data)), sort_keys=True).encode("utf-8")
        out[str(path.relative_to(work))] = hashlib.sha256(data).hexdigest()
    return out


# Taken from a run of the pipeline before the shared word table; the
# markers, sidecars and report since the phase keys hash typed config values
# and the Unicode version.
PINNED = {
    "annotated.jsonl":
        "71dbc1b7a9f6e0c08d8cd1275cf2125d156f500b053369a304d0afa68ac88b90",
    "classifiers/code.clf":
        "323294c19a470adfc3b39ee1114a3b110433f1b4347a96c6b633cf6b026e078f",
    "classifiers/math.clf":
        "bdd59c227900131e5b811768931a82eb54334dbca4b647b797c72b06aa1b7ed0",
    "classifiers/web.clf":
        "f45382e2504ab224fe363f60d71b8add4a9d98099acdf408c396dbd8ec2e72ff",
    "clusters.jsonl":
        "141d04a4c2ee9653ad7fdf1960365690d169221c09f11e028fe93201440d3123",
    "corpus.jsonl":
        "03a94b88cbe2dee3e408351b5dc494a3906366fd1cabc5cfda9b6aca482cfc2b",
    "curriculum.done.json":
        "39eb0134d3c23423c69aff3b90ff61a2fa9d24ac5f409ee8eeb94f156c15d462",
    "curriculum_report.json":
        "68ad9ab8d783bd06dffb51e6729ea5bc531c53cc68a73a21e7612a47adb4b83d",
    "dedup.done.json":
        "8b7d1ea551d22b35bec652f6f4761f869cf3dc513bfd0f7287ae909f8eca2902",
    "dedup_report.json":
        "7d13f4bac1d8f4aba97ba1f3c7b6c8d131ad27a9bd4f5cb7c81190e29d94264c",
    "drop_report.jsonl":
        "f9d097c9ced0af6faf2ca678997ea5c378b14c7d15229410dfa64bd5ab164766",
    "ingest.done.json":
        "e4a1d829a000be462472cf95f221f7754fb01fe8b7997caf7967111cb414b1a7",
    "ingest_report.json":
        "cbfef06c7193a61b0d3be4190e3ac28df934d4e35149e3a9bffd235dfaf59e12",
    "packed/manifest.txt":
        "6b6720ca8fedb08f8648769e84c90e3a78dd331d9d10a2cbfc9e33b39fee310f",
    "packed/stage_i.bin":
        "7727887a259c9dd9aa8473ec5d92ea0d829f094aaa9f33619a57fd13c27033e5",
    "packed/stage_ii.bin":
        "8f33f62853e69d4e0393c7378b5384fa412ecdc86c59e694c8ffe4afb0a59e0b",
    "packed/stage_iii.bin":
        "d47e1cac1b29ee023cef13e46bfb057b8fc623428e4aa919c6cacf9e091d7f93",
    "packed/stage_iv.bin":
        "585369f0c115402ca6ddcdd1a4c1425c9a860781490744e98c454c798fddb8df",
    "quality.done.json":
        "0cd35cea385f52a6cc8e50249ce121835ae1963a0143382c9a2cd8c1b4605524",
    "quality_report.json":
        "84cd1aed66b3984239c697b0610305344ef69e9e77c774b0475f2301170aac7b",
    "report.json":
        "0288eb3bd767a1130eb466cb959d3bb302aa6c60c2d0b67bced26d2c436904bf",
    "rope.json":
        "ad9a88ddd493923c954a77fe26ba038c5c4f063b8ca95a106ecb65e5d94753fc",
    "sampling.done.json":
        "66836e5ce53ab571070951221b093aef3c5a3aec7efe4f7ed00682bb4ef44502",
    "sampling_report.json":
        "23a5455c1c1ce5ddbbd4a5e816144e4a70085a6364629a77b65f81f96ede9165",
    "schedule.csv":
        "707e3336de693bdefba86686fa8d17c562d4e535f9322183aa08c81fea76f257",
    "stages/i/manifest.json":
        "5149ca47ec62d4efbeadb52e8b31f32ad184590adaf3d3249dcc9a1fa8e1a08d",
    "stages/i/shard_0000.jsonl":
        "01277a82a31d78f0f5be2f504f37621e287cd124321ea43f033ca230d31c92bb",
    "stages/ii/manifest.json":
        "81897390653a0edd503783198c0946be55f44e6b1c0db97335176c4668c7542e",
    "stages/ii/shard_0000.jsonl":
        "5084d26321d775a529def652a32729784874156553d0236298154eb6b602af76",
    "stages/iii/manifest.json":
        "d6c3170a4dfb69de78323dae9e53ed8d2ba6d1bbf7f1199817c5c3951a160d7d",
    "stages/iii/shard_0000.jsonl":
        "aa81cdb346b0ea3191aa2d8c975950024c9f256b6276bf2d8049a0d68c416a79",
    "stages/iv/manifest.json":
        "88eb6408369120f14ff1b2f74654adb1a04ca075fdc020c5be3a546501c6a39f",
    "stages/iv/shard_0000.jsonl":
        "3d5b7e83cde6db4dd068defa1e95ec7f06a2ef70826b023ec8f0d735e17fb58d",
    "train_prep.done.json":
        "baa2d708c6c704a3cbdfd505f2bee88b45c08b41e301d8552fde4803066db864",
    "train_prep_report.json":
        "8643d0161fbeeb62e425fe9214a653610f4d653ae423b58ead6e90f5bda8025c",
    "weights.jsonl":
        "2f665b5a8119b0ba6da023228fbda79c05656fc5aa10c7c10bb636dce1a98084",
}


def test_mixed_case_run_keeps_its_bytes(tmp_path):
    config = mixed_workspace(tmp_path)
    report = run_pipeline(config)
    assert report["reconciliation"]["ok"]
    assert work_digests(config.work_dir) == PINNED


def test_spaces_are_the_29_split_characters():
    assert len(SPACES) == 29 and all(len(f"a{c}b".split()) == 2 for c in SPACES)


# Text around the characters whose lowercasing is unusual: final and
# non-final sigma, dotted capital I, the soft hyphen and the zero-width space.
tricky_texts = st.text(
    alphabet=st.sampled_from([*SPACES, "Σ", "ς", "σ", "İ", "I", "i", "\u00ad", "\u200b", "A", "b", "ẞ"])
    | st.characters(),
    max_size=40,
)


@settings(max_examples=1000, deadline=None)
@given(tricky_texts)
def test_lowercasing_each_word_equals_splitting_the_lowercased_text(text):
    """The identity the word table rests on: its lowercase forms of a
    text's words are the words of the lowercased text."""
    assert [w.lower() for w in text.split()] == text.lower().split()


mixed_words = st.sampled_from(ODD_WORDS + ["apple", "Apple", "APPLE", "pear", "ΣΟΦΟΣ", "οδός", "a"])
mixed_texts = st.lists(
    st.tuples(mixed_words, st.sampled_from([" ", "\n", " \t ", *ODD_SPACES])).map("".join),
    max_size=14,
).map("".join)


def plain_stats(text: str) -> TextStats:
    words = text.split()
    lines = [ln for ln in text.split("\n") if ln.strip()]
    return TextStats(
        word_count=len(words),
        mean_word_length=len("".join(words)) / len(words) if words else 0.0,
        alpha_ratio=sum(c.isalpha() for c in text) / len(text) if text else 0.0,
        max_line_repeat_ratio=max(Counter(lines).values()) / len(lines) if len(lines) > 1 else 0.0,
    )


def plain_windows(text: str, orders, known_words=None) -> list[int]:
    words = text.lower().split()
    return [
        hash64(" ".join(words[i : i + n]).encode("utf-8"))
        for n in orders
        for i in range(len(words) - n + 1)
        if known_words is None or known_words.issuperset(words[i : i + n])
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(mixed_texts, min_size=1, max_size=6), st.sets(mixed_words.map(str.lower)))
def test_word_table_paths_equal_plain_per_text_references(texts, known_words):
    """Shingles, n-gram hashes with and without the word gate, text stats
    and token ids, all read from one table filled in varying order, equal
    plain references that split and hash each text on its own."""
    table = WordTable()
    tokenizer = WhitespaceTokenizer(1000)
    known = {hash64(w.encode("utf-8")) for w in known_words}
    for text in reversed(texts):  # some texts are read by the tokenizer first
        assert tokenizer.encode(text, table) == [
            1 + hash64(w.encode("utf-8")) % 1000 for w in text.split()
        ]
    for width in (1, 3):
        rows = shingle(texts, width, table)
        assert [row.tolist() for row in rows] == [
            sorted(reference_shingles(text, width)) for text in texts
        ]
    for text in texts:
        assert text_stats(text, table) == plain_stats(text)
        for orders in ((1,), (1, 2), (2, 3)):
            assert ngram_hashes(text, orders, table) == plain_windows(text, orders)
            assert ngram_hashes(text, orders, table, known) == plain_windows(
                text, orders, known_words
            )

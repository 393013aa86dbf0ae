"""Deterministic benchmark corpora: ``short-web``, ``long-web``, ``near-dup``.

Stdlib only and independent of ``repro.synth`` on purpose: the program under
test receives nothing from the benchmark but the files written here, so a
change to the repository's own generators can never move a benchmark number.
``seed`` (and the common ``scale`` the harness fixes) are the only inputs;
the same pair always produces the same bytes.  The harness runs this file as
a subprocess, so the rows never sit in the memory of the process whose
children's peak RSS it reads.

Every row is ``{"id": <position in the file>, "text": ..., "meta": {...}}``.
The ``id`` lets the harness check an export without a second run of the
recipe: whatever survives must be an increasing subsequence of the input ids.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import random
from pathlib import Path

#: rows at ``scale=1.0`` before the duplicates are added on top
SHORT_WEB_ROWS = 40_000
LONG_WEB_ROWS = 2_000
NEAR_DUP_ROWS = 20_000
#: exact duplicates appended to every corpus, as a share of its base rows
EXACT_DUP_SHARE = 0.10
#: share of ``near-dup`` base rows that are edited copies of an earlier row
NEAR_DUP_SHARE = 0.30
#: files of the sharded ``.jsonl.gz`` layout of ``short-web``
GZ_SHARDS = 8

_FUNCTION = (
    "the of and a to in is was it for with as on be at by this that from or an "
    "are not but they which have has had were their its we you can will would "
    "there been more"
).split()
_NOUNS = (
    "river village engine record garden letter market window bridge harvest "
    "journey teacher compass library signal mountain recipe station archive "
    "festival harbor lantern meadow notebook orchard pattern quarter railway "
    "shelter theatre valley workshop account balance chapter district evening "
    "factory gallery horizon island kitchen machine neighbor officer package "
    "question season traveler village weather"
).split()
_VERBS = (
    "carry build follow gather measure notice open paint reach repair return "
    "share study travel watch write answer borrow collect deliver explain "
    "forget handle improve join keep learn mention offer prepare"
).split()
_MODIFIERS = (
    "quiet bright narrow ancient steady gentle hollow curious distant patient "
    "plain rapid silver tidy useful warm wide young early common"
).split()
_RARE = (
    "cartography lighthouse manuscript observatory pilgrimage quarantine "
    "renaissance silhouette thermometer upholstery ventilation watermark"
).split()

#: one flat pool whose repeats give a Zipf-like rank distribution, so a whole
#: sentence is a single ``rng.choices`` call
_WORDS = _FUNCTION * 12 + _NOUNS * 5 + _VERBS * 5 + _MODIFIERS * 5 + _RARE * 3
_GIBBERISH = "qwrtypsdfghjklzxcvbnm#$%&*@!{}[]<>|\\/~^"


def _sentence(rng: random.Random) -> str:
    words = rng.choices(_WORDS, k=rng.randint(6, 18))
    words[1] = rng.choice(_VERBS)
    words[2] = rng.choice(_NOUNS)
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


def _paragraph(rng: random.Random, sentences: int) -> str:
    return " ".join(_sentence(rng) for _ in range(sentences))


def _with_links(rng: random.Random, text: str) -> str:
    tag = rng.randint(1, 999)
    boiler = (
        f" Visit https://example-site{tag}.com/page?id={tag} now."
        f" Contact admin{tag}@example.com or see www.tracker{tag}.net/click."
    )
    return text + ("\n" + boiler) * rng.randint(1, 3)


def _with_repetition(rng: random.Random, text: str) -> str:
    victim = rng.choice(text.split(". "))
    return text + " " + ". ".join([victim] * rng.randint(5, 10))


def _short_text(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.5:
        return _paragraph(rng, rng.randint(1, 3))
    if roll < 0.8:
        return _with_repetition(rng, _with_links(rng, _paragraph(rng, 2)))
    if roll < 0.9:
        return "".join(rng.choices(_GIBBERISH, k=rng.randint(60, 200)))
    return _sentence(rng)


def _long_text(rng: random.Random) -> str:
    return "\n\n".join(
        _paragraph(rng, rng.randint(3, 7)) for _ in range(rng.randint(12, 30))
    )


def _edited_copy(rng: random.Random, text: str) -> str:
    """``text`` with 1-3 words swapped or inserted (a near duplicate)."""
    words = text.split(" ")
    for _ in range(rng.randint(1, 3)):
        position = rng.randrange(len(words))
        if rng.random() < 0.5:
            words[position] = rng.choice(_WORDS)
        else:
            words.insert(position, rng.choice(_WORDS))
    return " ".join(words)


def _finish(rng: random.Random, texts: list[str], source: str) -> list[dict]:
    """Append the exact duplicates, shuffle, and number the rows."""
    texts = texts + [
        texts[rng.randrange(len(texts))] for _ in range(int(len(texts) * EXACT_DUP_SHARE))
    ]
    rng.shuffle(texts)
    return [
        {"id": index, "text": text, "meta": {"source": source}}
        for index, text in enumerate(texts)
    ]


def short_web(seed: int, scale: float = 1.0) -> list[dict]:
    """Comment/snippet-scale web text: half clean, the rest noisy or tiny."""
    rng = random.Random(f"short-web:{seed}")
    rows = max(20, int(SHORT_WEB_ROWS * scale))
    return _finish(rng, [_short_text(rng) for _ in range(rows)], "short-web")


def long_web(seed: int, scale: float = 1.0) -> list[dict]:
    """Article-scale pages of 12-30 clean paragraphs (~8k characters)."""
    rng = random.Random(f"long-web:{seed}")
    rows = max(10, int(LONG_WEB_ROWS * scale))
    return _finish(rng, [_long_text(rng) for _ in range(rows)], "long-web")


def near_dup(seed: int, scale: float = 1.0) -> list[dict]:
    """``short-web`` text where 30 % of the rows are edited copies of an earlier row."""
    rng = random.Random(f"near-dup:{seed}")
    rows = max(20, int(NEAR_DUP_ROWS * scale))
    texts: list[str] = []
    for _ in range(rows):
        if texts and rng.random() < NEAR_DUP_SHARE:
            texts.append(_edited_copy(rng, texts[rng.randrange(len(texts))]))
        else:
            texts.append(_short_text(rng))
    return _finish(rng, texts, "near-dup")


GENERATORS = {"short-web": short_web, "long-web": long_web, "near-dup": near_dup}


def encode_rows(rows: list[dict]) -> bytes:
    """The exact jsonl bytes of ``rows`` (what the digests are taken over)."""
    return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows).encode("utf-8")


def write_jsonl(rows: list[dict], path: Path) -> dict:
    """Write one plain ``.jsonl`` file; returns rows, bytes and sha256."""
    payload = encode_rows(rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)
    return {
        "path": str(path),
        "rows": len(rows),
        "bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }


def write_gz_shards(rows: list[dict], directory: Path, shards: int = GZ_SHARDS) -> dict:
    """Write ``rows`` as ``shards`` contiguous ``.jsonl.gz`` files in a directory.

    ``bytes`` and ``sha256`` describe the *uncompressed* concatenation in
    shard order, so they equal :func:`write_jsonl`'s for the same rows and
    do not depend on the zlib build.
    """
    directory.mkdir(parents=True, exist_ok=True)
    per_shard = -(-len(rows) // shards)
    digest = hashlib.sha256()
    total = 0
    for index in range(shards):
        payload = encode_rows(rows[index * per_shard:(index + 1) * per_shard])
        digest.update(payload)
        total += len(payload)
        with (directory / f"part-{index:05d}.jsonl.gz").open("wb") as raw:
            # mtime=0 and no embedded name keep the shard bytes reproducible
            with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as handle:
                handle.write(payload)
    return {
        "path": str(directory),
        "rows": len(rows),
        "bytes": total,
        "sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    """Write the named corpora under ``--output``; one JSON line describes each."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="common row-count factor (the harness fixes it; 1.0 = full size)")
    parser.add_argument("--name", choices=sorted(GENERATORS), action="append",
                        help="corpus to write (repeatable; default: all three)")
    parser.add_argument("--gz-shards", action="store_true",
                        help="write the .jsonl.gz directory layout instead of one .jsonl file")
    parser.add_argument("--output", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    root = Path(args.output)
    for name in args.name or sorted(GENERATORS):
        rows = GENERATORS[name](args.seed, args.scale)
        if args.gz_shards:
            print(json.dumps(write_gz_shards(rows, root / f"{name}-gz")))
        else:
            print(json.dumps(write_jsonl(rows, root / f"{name}.jsonl")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``output_digest.py`` is the byte-identity check a change runs on two
commits. This runs it on one setup at both precisions, so that an API change
that breaks the tool fails here, not when the check is next needed. No digest
is pinned: the bytes depend on the BLAS build.
"""

import hashlib
import re

import output_digest

EMPTY = hashlib.sha256().hexdigest()


def test_every_part_of_a_setup_yields_a_digest(monkeypatch, capsys):
    setup = next(s for s in output_digest.setups() if s[0] == "toy64-partition")
    monkeypatch.setattr(output_digest, "setups", lambda: iter([setup]))
    assert output_digest.main(["--verbose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    block = 1 + len(output_digest.PARTS)
    assert len(lines) == 2 * block + 2
    wholes = []
    for (label, _), lo in zip(output_digest.PRECISIONS, (0, block)):
        header = re.fullmatch(rf"{label} toy64-partition: ([0-9a-f]{{64}}) \((\d+) predicted instances\)",
                              lines[lo])
        assert header and int(header.group(2)) > 0, lines[lo]
        parts = [line.split() for line in lines[lo + 1 : lo + block]]
        assert [name for name, _ in parts] == list(output_digest.PARTS)
        for name, digest in parts:
            # every part was fed some bytes
            assert re.fullmatch(r"[0-9a-f]{64}", digest) and digest != EMPTY, (label, name)
        wholes.append(header.group(1))
    # the two precisions fed different bytes, and each total line hashes its own
    assert wholes[0] != wholes[1]
    assert lines[-2] == "float32: " + hashlib.sha256(wholes[0].encode()).hexdigest()
    assert lines[-1] == hashlib.sha256(wholes[1].encode()).hexdigest()

"""``output_digest.py`` is the byte-identity check a change runs on two
commits. This runs it on one setup, so that an API change that breaks the
tool fails here, not when the check is next needed. No digest is pinned: the
bytes depend on the BLAS build.
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
    header = re.fullmatch(r"toy64-partition: ([0-9a-f]{64}) \((\d+) predicted instances\)", lines[0])
    assert header and int(header.group(2)) > 0
    parts = [line.split() for line in lines[1:-1]]
    assert [name for name, _ in parts] == list(output_digest.PARTS)
    for name, digest in parts:
        # every part was fed some bytes
        assert re.fullmatch(r"[0-9a-f]{64}", digest) and digest != EMPTY, name
    assert lines[-1] == hashlib.sha256(header.group(1).encode()).hexdigest()

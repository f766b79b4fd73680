"""Content digests, and what importing them costs.

Source digests and the bin store's payload and record digests are
BLAKE2b-128, taken from ``_blake2`` rather than ``hashlib``: importing
``hashlib`` loads OpenSSL's ``_hashlib`` and adds about 3.6 MB to every
process's resident memory.  The subprocess tests pin that no front end
pulls ``hashlib`` in.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.digest import content_digest
from repro.units.pipeline import source_digest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Runs ``python -m repro.cm ARGS...`` and, at interpreter exit, prints
#: which of the OpenSSL hashing modules were ever imported.
PROBE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('HASHLIB', sorted(\n"
    "    m for m in ('hashlib', '_hashlib') if m in sys.modules)))\n"
    "sys.argv = ['repro.cm'] + sys.argv[1:]\n"
    "runpy.run_module('repro.cm', run_name='__main__', alter_sys=True)\n"
)


def test_content_digest_is_blake2b_128():
    import hashlib

    for data in (b"", b"structure A = struct end", bytes(range(256))):
        assert content_digest(data) == \
            hashlib.blake2b(data, digest_size=16).hexdigest()
    assert len(content_digest(b"x")) == 32


def test_source_digest_hashes_utf8_text():
    assert source_digest("val s = \"é\"") == \
        content_digest("val s = \"é\"".encode("utf-8"))


@pytest.fixture
def srcdir(tmp_path):
    d = tmp_path / "proj"
    d.mkdir()
    (d / "a.sml").write_text("structure A = struct val x = 1 end\n")
    (d / "b.sml").write_text("structure B = struct val y = A.x end\n")
    return str(d)


def run_probe(args, stdin=""):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run([sys.executable, "-c", PROBE, *args],
                          input=stdin, capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_directory_build_never_imports_hashlib(srcdir):
    out = run_probe([srcdir, "--no-link"])
    assert "2 compiled" in out
    assert "HASHLIB []" in out


def test_serve_session_never_imports_hashlib(srcdir):
    requests = "".join(json.dumps(r) + "\n" for r in (
        {"op": "build"}, {"op": "build"}, {"op": "shutdown"}))
    out = run_probe(["--serve", srcdir], stdin=requests)
    assert out.count('"ok":true') == 3
    assert "HASHLIB []" in out

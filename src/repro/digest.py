"""Content digests: the hash for every checked byte string that is not
a pid.

Pids stay CRC-128 (:mod:`repro.pids.crc128`), because the paper (§5)
defines them that way and cutoff and the link check compare them across
sessions.  Source digests, the bin store's payload and record digests,
the remote store's frame trailers and the stable archive's checks only
have to detect change and damage, so they use a C-speed hash instead of
the pure-Python CRC.
"""

from __future__ import annotations

from _blake2 import blake2b


def content_digest(data: bytes) -> str:
    """The 32-hex-digit BLAKE2b-128 digest of ``data``.

    ``blake2b`` comes from ``_blake2``, which is what ``hashlib.blake2b``
    is on CPython.  Importing ``hashlib`` itself would also load
    OpenSSL's ``_hashlib``: about 3.5 MB more resident memory in every
    process (9% of a new-session null build), for no gain.  No front
    end imports ``hashlib``; ``tests/units/test_digest.py`` checks that
    a directory build and a ``--serve`` session stay free of both
    modules.
    """
    return blake2b(data, digest_size=16).hexdigest()

"""Append-only point-count cache.

One JSON record per line: {"hash": ..., "n": ..., "count": ...}, a string
and two JSON integers.  On load, a corrupt record after the last newline (an
interrupted write) is truncated away and any other corrupt line is skipped,
so no valid record is lost and a skipped level is counted again.
Concurrent invocations may share one file: each append, and each truncation
of a corrupt tail, holds an exclusive flock on it.
"""

import fcntl
import json
import os


class CountCache:
    def __init__(self, path):
        self.path = path
        self.records = {}
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            data = fh.read()
        lines = data.split(b"\n")
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                digest, n, count = rec["hash"], rec["n"], rec["count"]
                # JSON integers only: a count of 5.0, "5" or true is corrupt
                if not (type(digest) is str and type(n) is int and type(count) is int):
                    raise ValueError("not a count record")
                self.records[(digest, n)] = count
            except (ValueError, KeyError, TypeError):
                if i == len(lines) - 1:
                    self._truncate_tail()

    def _truncate_tail(self):
        """Drop the unterminated record at the end of the file.  The file is
        read again under the lock: what looked cut off may have been an
        append still in progress, which now ends with its newline."""
        with open(self.path, "r+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            data = fh.read()
            if not data.endswith(b"\n"):
                fh.truncate(data.rfind(b"\n") + 1)

    def get(self, variety_hash, n):
        return self.records.get((variety_hash, n))

    def check_writable(self):
        """Raise OSError unless a record could be appended: the missing
        directories are made and the file is opened for appending."""
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        open(self.path, "ab").close()

    def put(self, variety_hash, n, count):
        if (variety_hash, n) in self.records:
            return
        self.records[(variety_hash, n)] = count
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        line = json.dumps({"hash": variety_hash, "n": n, "count": count}).encode() + b"\n"
        with open(self.path, "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            end = fh.seek(0, os.SEEK_END)
            if end:
                # a last record without its newline must not merge with this one
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    line = b"\n" + line
            fh.write(line)
            fh.flush()


def default_cache(path=None):
    """The cache that `path` (a --cache-dir value) names, else the
    PICARDKIT_CACHE environment variable, else None.  A directory, or a
    path without an extension that is not a file, holds counts.ndjson; any
    other path is the cache file itself."""
    path = path or os.environ.get("PICARDKIT_CACHE")
    if not path:
        return None
    if os.path.isdir(path) or not (os.path.splitext(path)[1] or os.path.isfile(path)):
        path = os.path.join(path, "counts.ndjson")
    return CountCache(path)

"""A persistent, disk-backed cost-table store.

Section 4 of the paper: cost tables are "tiny compared to the weight data
required for most DNN models, making it feasible to produce these cost tables
before deployment, and ship them with the trained model".  The in-process
caches of :class:`repro.api.Session` realize "profile once, select many"
within one process; :class:`CostStore` extends it across processes: every
produced table set is written to a cache directory as a JSON document keyed
by ``(network fingerprint, platform, threads, batch, cost-model name, cost-model
version, platform registry version)``, and any later session pointed at the
same directory loads the tables instead of re-profiling.

The store wraps nothing: the session hands it the build to run on a miss,
so the same persistence works for analytically priced tables and for
host-profiled ones (where re-profiling is genuinely expensive).  The key's
``provider`` and ``provider_version`` fields hold the pricing
:class:`~repro.cost.model.CostModel`'s ``name`` and ``version``, so bumping
a model's ``version`` invalidates stale entries instead of silently serving
them.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.cost.model import CostModel
from repro.cost.platform import PLATFORMS, platform_version
from repro.cost.serialize import cost_tables_from_dict, cost_tables_to_dict
from repro.cost.tables import CostQuery, CostTables

PathLike = Union[str, Path]

logger = logging.getLogger(__name__)

# An entry that exists but cannot be served is a degraded path: the tables are
# rebuilt, so a cache directory full of such entries silently cold-starts
# every process pointed at it.  It is logged once per process, so a
# long-running daemon reports it without flooding its log.
_SKIPPED_ENTRY_LOGGED = False
_SKIPPED_ENTRY_LOCK = threading.Lock()


def _log_skipped_entry(path: Path, reason: str) -> None:
    global _SKIPPED_ENTRY_LOGGED
    with _SKIPPED_ENTRY_LOCK:
        if _SKIPPED_ENTRY_LOGGED:
            return
        _SKIPPED_ENTRY_LOGGED = True
    logger.warning(
        "cost-store entry %s cannot be served (%s); rebuilding its tables and "
        "overwriting it (further skipped entries are only counted as misses)",
        path,
        reason,
    )

#: Format identifier embedded in every store entry.  v2 added ``batch`` to
#: the key schema (and to the filename digest); v3 added ``platform_version``
#: (the platform registry version plus the platform's parameter digest), so
#: editing a platform's modelled numbers — or registering a different
#: platform under a reused name — invalidates its persisted tables; v4 holds
#: the multi-objective cost-table payload (per-primitive workspace and energy
#: plus per-conversion energies, ``repro/cost-tables/v2``); v5 adds ``dtype``
#: to the key schema and holds the precision-aware payload (per-primitive
#: accuracy losses, ``repro/cost-tables/v3``), so fp32/fp16/int8 tables for
#: the same tuple never alias on disk.  Bumping the version makes the skew
#: explicit in both directions — older-format entries are *regenerated and
#: overwritten* by :meth:`CostStore.tables`, skipped by
#: :meth:`CostStore.entries` (and removed by :meth:`CostStore.clear`) instead
#: of being half-parsed, and older checkouts reject v5 documents outright.
STORE_ENTRY_FORMAT = "repro/cost-store-entry/v5"


@dataclass(frozen=True)
class StoreKey:
    """The identity of one persisted cost-table set."""

    fingerprint: str
    platform: str
    threads: int
    #: Name and version of the cost model that priced the tables (the field
    #: names predate cost models and stay, so existing entries keep hitting).
    provider: str
    provider_version: str
    #: Digest of the primitive library and DT graph the tables were built
    #: against — node costs are keyed by primitive name, so tables from a
    #: different library must not be served.
    components: str = ""
    #: Minibatch size the tables were priced for.  Part of the key, so
    #: batch-1 and batch-N tables never alias each other on disk.
    batch: int = 1
    #: Registry version plus parameter digest of the modelled platform (see
    #: :func:`repro.cost.platform.platform_version`); empty for platform-less
    #: cost models (the host profiler).  Part of the key, so editing a
    #: platform's numbers invalidates its stored tables.
    platform_version: str = ""
    #: Numeric precision the tables were priced for.  Part of the key, so
    #: fp32/fp16/int8 tables for the same tuple never alias each other.
    dtype: str = "fp32"

    def digest(self) -> str:
        """A short stable digest of the full key (used in the filename)."""
        text = "|".join(
            (
                self.fingerprint,
                self.platform,
                str(self.threads),
                self.provider,
                self.provider_version,
                self.components,
                str(self.batch),
                self.platform_version,
                self.dtype,
            )
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def components_digest(library, dt_graph) -> str:
    """A stable digest of a (primitive library, DT graph) pair.

    Covers the primitive names with their layouts and the DT graph's layouts
    and direct transforms — everything the cost-table *shape* depends on.
    """
    parts = sorted(
        f"{p.name}:{p.input_layout.name}>{p.output_layout.name}" for p in library
    )
    parts.append("/layouts:" + ",".join(sorted(dt_graph.layout_names)))
    parts.append(
        "/transforms:"
        + ",".join(
            sorted(
                f"{t.source.name}>{t.target.name}" for t in dt_graph.transforms
            )
        )
    )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class StoreEntry:
    """One entry currently present in the store directory."""

    key: StoreKey
    path: Path
    size_bytes: int


@dataclass(frozen=True)
class StoreStats:
    """Hit/miss/eviction counters of one store instance plus the disk state.

    ``hits``/``misses``/``evictions`` describe *this instance's* activity;
    ``entries`` and ``bytes_on_disk`` describe the directory as it stands
    (shared with any other process pointed at it).  ``repro cache`` and the
    service's ``/v1/metrics`` both render exactly these numbers.
    """

    hits: int
    misses: int
    entries: int
    evictions: int = 0
    bytes_on_disk: int = 0


@dataclass(frozen=True)
class EvictionReport:
    """What one :meth:`CostStore.evict` pass removed, by reason."""

    #: Entries whose on-disk format tag is not the current one (or that do
    #: not parse at all): version-based eviction.
    stale_format: int = 0
    #: Entries whose recorded ``platform_version`` no longer matches the
    #: currently registered platform of the same name — the platform's
    #: modelled parameters changed, so the tables can never be served again.
    stale_platform: int = 0
    #: Entries older than the TTL (by file modification time).
    expired: int = 0

    @property
    def removed(self) -> int:
        return self.stale_format + self.stale_platform + self.expired


def _slug(text: str) -> str:
    """A filesystem-safe fragment of a key component."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)[:48]


class CostStore:
    """Disk-backed cost tables: one JSON entry per key in ``cache_dir``.

    Parameters
    ----------
    cache_dir:
        Directory holding the JSON entries (created if absent).
    """

    def __init__(self, cache_dir: PathLike) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def tables(
        self,
        query: CostQuery,
        cost_model: CostModel,
        build: Callable[[], CostTables],
    ) -> CostTables:
        """Load the query's tables from disk, or run ``build`` and persist them.

        ``cost_model`` is the model ``build`` prices with; its name and
        version are part of the key.  An on-disk entry in an older (or
        corrupt) format is a *miss*, not an error: the entry filename encodes
        the key but not the entry format, so a format bump would otherwise
        turn every warm cache directory into a crash.  Stale entries are
        regenerated and overwritten in place, and the first one a process
        meets is logged as a WARNING on ``repro.cost.store``.
        """
        key = self.key_for(query, cost_model)
        path = self.path_for(key)
        if path.exists():
            try:
                document = json.loads(path.read_text())
                entry_format = document.get("format") if isinstance(document, dict) else None
                if entry_format == STORE_ENTRY_FORMAT:
                    loaded = cost_tables_from_dict(document["tables"], query.dt_graph)
                    self._hits += 1
                    return loaded
                _log_skipped_entry(path, f"format {entry_format!r}, not {STORE_ENTRY_FORMAT!r}")
            except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
                _log_skipped_entry(path, f"{type(exc).__name__}: {exc}")
        tables = build()
        self._misses += 1
        self._write(path, key, tables)
        return tables

    # -- keying and paths ---------------------------------------------------------

    def key_for(self, query: CostQuery, cost_model: CostModel) -> StoreKey:
        """The persistent identity of a query's tables priced by ``cost_model``.

        A model with a ``platform`` prices that platform whatever the query
        is labelled, so its platform's version is recorded: tables one
        platform's model priced never answer for another platform.
        """
        priced_on = getattr(cost_model, "platform", None) or query.platform
        return StoreKey(
            fingerprint=query.fingerprint,
            platform=query.platform_name,
            threads=query.threads,
            provider=cost_model.name,
            provider_version=cost_model.version,
            components=components_digest(query.library, query.dt_graph),
            batch=query.batch,
            platform_version="" if priced_on is None else platform_version(priced_on),
            dtype=query.dtype,
        )

    def shard_for(self, key: StoreKey) -> Path:
        """The per-platform shard subdirectory one key lives in.

        Namespacing the cache by platform keeps one platform's churn (a
        parameter edit, a registry version bump) physically contained, makes
        ``repro cache`` output scannable, and lets deployments mount or sync
        shards independently.
        """
        return self.cache_dir / (_slug(key.platform) or "default")

    def path_for(self, key: StoreKey) -> Path:
        """The JSON file one key is stored at (readable prefix + key digest)."""
        prefix = (
            f"{_slug(key.fingerprint)}_{_slug(key.platform)}"
            f"_{key.threads}t_b{key.batch}_{_slug(key.dtype)}"
        )
        return self.shard_for(key) / f"{prefix}_{key.digest()}.json"

    # -- management ---------------------------------------------------------------

    def _entry_files(self) -> List[Path]:
        """Every ``*.json`` file in the cache directory, parseable or not.

        Covers both the per-platform shard subdirectories and legacy flat
        entries written before sharding (which simply miss and are cleaned by
        :meth:`clear` / :meth:`evict` like any other stale file).
        """
        return sorted(
            list(self.cache_dir.glob("*.json")) + list(self.cache_dir.glob("*/*.json"))
        )

    def entries(self) -> List[StoreEntry]:
        """Every well-formed entry currently in the cache directory."""
        found: List[StoreEntry] = []
        for path in self._entry_files():
            try:
                document = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if document.get("format") != STORE_ENTRY_FORMAT:
                continue
            found.append(
                StoreEntry(
                    key=StoreKey(**document["key"]),
                    path=path,
                    size_bytes=path.stat().st_size,
                )
            )
        return found

    def clear(self) -> int:
        """Delete every ``*.json`` file; returns the number of files removed.

        Deliberately *not* built on :meth:`entries`, which silently skips
        unparseable or old-format documents: after a format-version bump (or
        a crash that left junk behind) those stale files must still be
        removed, otherwise the directory stays dirty and the reported count
        is wrong.  Leftover write-temporaries (``.*.tmp``) are removed too,
        but only entry files count toward the return value.
        """
        removed = 0
        for path in self._entry_files():
            path.unlink(missing_ok=True)
            removed += 1
        for pattern in (".*.tmp", "*/.*.tmp"):
            for leftover in self.cache_dir.glob(pattern):
                leftover.unlink(missing_ok=True)
        for shard in self.cache_dir.iterdir():
            if shard.is_dir() and not any(shard.iterdir()):
                shard.rmdir()
        return removed

    def evict(
        self,
        ttl_seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> EvictionReport:
        """Remove entries that can (or should) never be served again.

        Two mandatory criteria plus one optional:

        * *version-based*: files that do not parse, or whose format tag is
          not the current :data:`STORE_ENTRY_FORMAT` — a format bump already
          makes :meth:`tables` skip them, this reclaims the disk;
        * *stale platform*: entries whose recorded ``platform_version``
          differs from the version of the **currently registered** platform
          of the same name (its modelled parameters changed, so the key can
          never match again; entries for unregistered platforms are kept —
          the owning registration may simply not be loaded right now);
        * *TTL*: with ``ttl_seconds``, entries whose file modification time
          is older than the TTL (the shared-tier hygiene bound for a
          long-running service).

        Removed entries count into :meth:`stats`' ``evictions``.
        """
        reference = time.time() if now is None else now
        stale_format = stale_platform = expired = 0
        for path in self._entry_files():
            try:
                document = json.loads(path.read_text())
                current = document.get("format") == STORE_ENTRY_FORMAT
            except (OSError, json.JSONDecodeError):
                document, current = {}, False
            if not current:
                path.unlink(missing_ok=True)
                stale_format += 1
                continue
            key = document.get("key", {})
            platform_name = key.get("platform", "")
            recorded = key.get("platform_version", "")
            registered = PLATFORMS.get(platform_name)
            if recorded and registered is not None:
                if platform_version(registered) != recorded:
                    path.unlink(missing_ok=True)
                    stale_platform += 1
                    continue
            if ttl_seconds is not None:
                try:
                    age = reference - path.stat().st_mtime
                except OSError:
                    continue
                if age > ttl_seconds:
                    path.unlink(missing_ok=True)
                    expired += 1
        report = EvictionReport(
            stale_format=stale_format, stale_platform=stale_platform, expired=expired
        )
        self._evictions += report.removed
        return report

    def stats(self) -> StoreStats:
        """This instance's hit/miss/eviction counters and the disk state.

        Counts ``*.json`` files (and sums their sizes) directly instead of
        JSON-parsing every entry (the old behaviour, which both undercounted
        after format bumps and read the whole directory just to produce a
        number).
        """
        files = self._entry_files()
        bytes_on_disk = 0
        for path in files:
            try:
                bytes_on_disk += path.stat().st_size
            except OSError:
                pass
        return StoreStats(
            hits=self._hits,
            misses=self._misses,
            entries=len(files),
            evictions=self._evictions,
            bytes_on_disk=bytes_on_disk,
        )

    # -- plumbing -----------------------------------------------------------------

    def _write(self, path: Path, key: StoreKey, tables: CostTables) -> None:
        document = {
            "format": STORE_ENTRY_FORMAT,
            "key": asdict(key),
            "tables": cost_tables_to_dict(tables),
        }
        # Write-then-rename so a crashed process never leaves a torn entry.
        # The temp name must be unique per *call*, not per process: two
        # threads (e.g. concurrent plans on one session) writing the same key
        # would interleave on a shared pid-suffixed file and rename a torn
        # document.
        # The temp file lives in the target's shard so the rename stays atomic
        # (same filesystem, same directory).
        path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(
            "w",
            dir=path.parent,
            prefix=f".{path.stem}-",
            suffix=".tmp",
            delete=False,
        ) as handle:
            temporary = Path(handle.name)
            handle.write(json.dumps(document, sort_keys=True))
        temporary.replace(path)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CostStore(cache_dir={str(self.cache_dir)!r}, "
            f"hits={self._hits}, misses={self._misses})"
        )

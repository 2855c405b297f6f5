"""A persistent, disk-backed cost-table store.

Section 4 of the paper: cost tables are "tiny compared to the weight data
required for most DNN models, making it feasible to produce these cost tables
before deployment, and ship them with the trained model".  The in-process
caches of :class:`repro.api.Session` realize "profile once, select many"
within one process; :class:`CostStore` extends it across processes: every
produced table set is written to a cache directory as a JSON document keyed
by ``(network fingerprint, platform, threads, batch, provider name, provider
version, platform registry version)``, and any later session pointed at the
same directory loads the tables instead of re-profiling.

The store is itself a :class:`~repro.cost.provider.CostProvider` — it
decorates any other provider, so the same persistence works for analytically
priced tables and for host-profiled ones (where re-profiling is genuinely
expensive).  The provider version participates in the key, so bumping a
provider's ``version`` invalidates stale entries instead of silently serving
them.
"""

from __future__ import annotations

import hashlib
import json
import re
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.cost.platform import PLATFORMS, platform_version
from repro.cost.provider import AnalyticalCostProvider, CostProvider, CostQuery
from repro.cost.serialize import cost_tables_from_dict, cost_tables_to_dict
from repro.cost.tables import CostTables

PathLike = Union[str, Path]

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
    #: providers (the host profiler).  Part of the key, so editing a
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
    """Disk-backed cost tables: a persistent decorator around a provider.

    Parameters
    ----------
    cache_dir:
        Directory holding the JSON entries (created if absent).
    provider:
        The provider that produces tables on a miss (default: the analytical
        provider, matching :class:`repro.api.Session`'s default).
    """

    def __init__(
        self, cache_dir: PathLike, provider: Optional[CostProvider] = None
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.provider = provider if provider is not None else AnalyticalCostProvider()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- CostProvider interface ---------------------------------------------------

    @property
    def name(self) -> str:
        """The inner provider's name: the store changes where tables come
        from, not what they describe, so platform-less contexts keep the
        inner provider's label (and its on-disk keys already carry it)."""
        return self.provider.name

    @property
    def version(self) -> str:
        return self.provider.version

    def tables(self, query: CostQuery) -> CostTables:
        """Load the query's tables from disk, or produce and persist them.

        An on-disk entry in an older (or corrupt) format is a *miss*, not an
        error: the entry filename encodes the key but not the entry format,
        so a format bump would otherwise turn every warm cache directory into
        a crash.  Stale entries are regenerated and overwritten in place.
        """
        key = self.key_for(query)
        path = self.path_for(key)
        if path.exists():
            try:
                document = json.loads(path.read_text())
                if document.get("format") == STORE_ENTRY_FORMAT:
                    loaded = cost_tables_from_dict(document["tables"], query.dt_graph)
                    self._hits += 1
                    return loaded
            except (OSError, json.JSONDecodeError, KeyError, ValueError):
                pass
        tables = self.provider.tables(query)
        self._misses += 1
        self._write(path, key, tables)
        return tables

    # -- keying and paths ---------------------------------------------------------

    def key_for(self, query: CostQuery) -> StoreKey:
        """The persistent identity of a query's tables."""
        return StoreKey(
            fingerprint=query.fingerprint,
            platform=query.platform_name,
            threads=query.threads,
            provider=self.provider.name,
            provider_version=self.provider.version,
            components=components_digest(query.library, query.dt_graph),
            batch=query.batch,
            platform_version=(
                "" if query.platform is None else platform_version(query.platform)
            ),
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

    def contains(self, query: CostQuery) -> bool:
        """Whether the store already holds tables for a query."""
        return self.path_for(self.key_for(query)).exists()

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
            f"provider={self.provider.name!r}, hits={self._hits}, misses={self._misses})"
        )

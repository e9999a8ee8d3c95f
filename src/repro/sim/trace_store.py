"""Persistent binary trace store: materialize once, reuse everywhere.

Trace materialization (:mod:`repro.sim.replay`) already amortizes
generator cost *within* a process; this module extends the reuse
across processes and sessions.  A materialized
:class:`~repro.sim.replay.CachedApplication` is serialized to a
compact binary file (RTRX) keyed by the same identity the in-memory
cache uses (:func:`repro.core.sweep.app_key`) plus a fingerprint of
the trace-producing source trees.  ``repro trace`` writes the same format for one host launch.

RTRX version 2 stores the kernels, launches and host ops, an
``id()``-deduplicated instruction pool, a deduplicated table of warp
*entries* and one entry index per warp of each launch.  An entry is
an instruction list, its :class:`~repro.sim.replay.TraceCounts` and
an app-wide id of the warp's equivalence class
(:meth:`~repro.sim.replay.ReplayKernel.class_key`, computed at encode
time).  :func:`decode_bytes` rebuilds a ``CachedApplication`` whose
kernels have those tables preloaded and no generator behind them;
its totals and launch profiles come from the same walk a cold build
runs.  A store hit thus replays bit-identically and estimates like a
cold build (the golden suite in ``tests/sim/test_trace_golden.py``
locks both in).  Version-1 files retire like corrupt ones.

Key policy
----------
A store entry is addressed by ``sha256(repr(key) + source
fingerprint)``.  The caller's ``key`` carries the application identity
(benchmark, CDP, dataset size, options), which no config knob enters;
the fingerprint hashes every ``.py`` file under
``repro/kernels``, ``repro/isa``, ``repro/data`` and
``repro/genomics`` — the four trees that can change trace *content*
without changing the key.  Editing any of them silently retires every
old entry (the old files are just never addressed again).

Corruption contract
-------------------
``load`` never raises for a bad file: wrong magic, wrong version,
foreign byte order, truncation, or a CRC mismatch all unlink the file
(best effort) and return ``None``, so callers fall back to live
generation and overwrite the entry.

Concurrency
-----------
The directory is the store's only state: ``<name>.trace`` entries,
``<name>.trace.lock`` build locks and ``builds.log``.
:meth:`TraceStore.get_or_build` serializes cold builds of one entry
across processes with an exclusive ``fcntl.flock`` on the entry's
lock file: one process builds while the others wait in ``flock``,
then load the published entry (or build it themselves if the holder
died before publishing).  The kernel drops the lock when its holder
exits, however it exits, so a SIGKILLed writer never stalls the next
reader and a slow live writer is never pre-empted.  Lock files are
never unlinked, because a waiter may hold one open.  A ``flock``
belongs to the open file description, which a fork shares, so only
processes that run points take a build lock and none of them forks
while holding one (the service and sweep-coordinator parents never
build).  Finished entries are published by atomic rename, so readers
never observe a partial file.  Every materialization appends one line
to ``builds.log``, which is how the fan-out tests assert the
exactly-once property.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import struct
import sys
import zlib
from array import array
from pathlib import Path

from repro.isa.instructions import (
    MemAccess,
    MemSpace,
    OpClass,
    WarpInstruction,
    instruction_kind,
    popcount,
)
from repro.sim.kernel import KernelProgram, WarpContext
from repro.sim.launch import HostLaunch, HostMemcpy, KernelLaunch
from repro.sim.replay import CachedApplication, ReplayKernel, TraceCounts
from repro.sim.stats import OCCUPANCY_BUCKETS

MAGIC = b"RTRX"
VERSION = 2

#: Archive format of :meth:`TraceStore.pack` / :meth:`TraceStore.unpack`.
PACK_MAGIC = b"RPAK"
PACK_VERSION = 1

_OPS = list(OpClass)
_SPACES = list(MemSpace)
_NO_SPACE = 255

#: Header byte-order code of this host (0 little-, 1 big-endian).
_BYTE_ORDER = 0 if sys.byteorder == "little" else 1


# -- binary encoding --------------------------------------------------------


class _Writer:
    def __init__(self):
        self.parts: list[bytes] = []

    def u8(self, v: int) -> None:
        self.parts.append(struct.pack("<B", v))

    def u32(self, v: int) -> None:
        self.parts.append(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self.parts.append(struct.pack("<Q", v))

    def text(self, s: str) -> None:
        raw = s.encode("utf-8")
        self.u32(len(raw))
        self.parts.append(raw)

    def arr(self, a: array) -> None:
        raw = a.tobytes()
        self.u32(len(raw))
        self.parts.append(raw)

    def payload(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise ValueError("truncated trace payload")
        raw = self.data[self.pos : end]
        self.pos = end
        return raw

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def text(self) -> str:
        return self._take(self.u32()).decode("utf-8")

    def arr(self, typecode: str) -> array:
        a = array(typecode)
        a.frombytes(self._take(self.u32()))
        return a


#: Key vocabularies of the three :class:`TraceCounts` mappings; the
#: counts table stores each key as its index here.
_COUNT_KEYS = (
    [op._value_ for op in _OPS],
    [space._value_ for space in _SPACES],
    list(OCCUPANCY_BUCKETS),
)


def _counts_to(flat: array, counts: TraceCounts) -> None:
    """Append ``counts`` to the flat counts table, in dict order."""
    flat.append(counts.instructions)
    mappings = (counts.op_mix, counts.mem_mix, counts.warp_occupancy)
    for keys, mapping in zip(_COUNT_KEYS, mappings):
        flat.append(len(mapping))
        for key, value in mapping.items():
            flat.append(keys.index(key))
            flat.append(value)


def _counts_from(flat: array, pos: int) -> tuple[TraceCounts, int]:
    counts = TraceCounts()
    counts.instructions = flat[pos]
    pos += 1
    mappings = (counts.op_mix, counts.mem_mix, counts.warp_occupancy)
    for keys, mapping in zip(_COUNT_KEYS, mappings):
        n = flat[pos]
        for k in range(pos + 1, pos + 1 + 2 * n, 2):
            mapping[keys[flat[k]]] = flat[k + 1]
        pos += 1 + 2 * n
    return counts, pos


def encode_bytes(entry: CachedApplication) -> bytes:
    """Serialize a materialized application to the store payload."""
    # Launch discovery: host launches first, then CDP children in the
    # order their LAUNCH instructions are encountered.  Launches,
    # kernels, argument sets, warp entries, counts and instructions
    # are each deduplicated by identity: warps that share a
    # template-instantiated entry share one entry-table row.
    launches: list[KernelLaunch] = []
    launch_ids: dict[int, int] = {}

    def launch_id(launch: KernelLaunch) -> int:
        lid = launch_ids.get(id(launch))
        if lid is None:
            lid = launch_ids[id(launch)] = len(launches)
            launches.append(launch)
        return lid

    host_ops = []
    for op in entry.ops:
        if isinstance(op, HostLaunch):
            host_ops.append((1, launch_id(op.launch)))
        else:
            host_ops.append((0, op.nbytes, op.direction))

    pool: list[WarpInstruction] = []
    pool_ids: dict[int, int] = {}
    counts_flat = array("Q")
    counts_ids: dict[int, int] = {}
    class_ids: dict = {}
    entry_ids: dict[tuple, int] = {}
    entry_lens = array("I")
    entry_flat = array("I")
    entry_counts = array("I")
    entry_classes = array("I")
    kernels: list = []
    kernel_ids: dict[int, int] = {}
    args_ids: dict[str, int] = {}
    # Per launch: kernel id, grid size, argument-set id; per warp of
    # every launch in turn: its entry id.
    launch_kernels = array("I")
    launch_ctas = array("I")
    launch_args = array("I")
    warp_entries = array("I")

    index = 0
    while index < len(launches):
        launch = launches[index]
        kernel = launch.kernel
        kid = kernel_ids.get(id(kernel))
        if kid is None:
            kid = kernel_ids[id(kernel)] = len(kernels)
            kernels.append(kernel)
        launch_kernels.append(kid)
        launch_ctas.append(launch.num_ctas)
        token = entry.args_token(launch.args)
        launch_args.append(args_ids.setdefault(token, len(args_ids)))
        for cta_id in range(launch.num_ctas):
            for warp_id in range(kernel.warps_per_cta):
                ctx = WarpContext(
                    cta_id=cta_id,
                    warp_id=warp_id,
                    warps_per_cta=kernel.warps_per_cta,
                    num_ctas=launch.num_ctas,
                    args=launch.args,
                )
                item = kernel.entry_for(ctx)
                cid = class_ids.setdefault(
                    kernel.class_key(ctx), len(class_ids)
                )
                eid = entry_ids.get((id(item), cid))
                if eid is None:
                    eid = entry_ids[(id(item), cid)] = len(entry_lens)
                    instrs, counts = item
                    for instr in instrs:
                        pid = pool_ids.get(id(instr))
                        if pid is None:
                            pid = pool_ids[id(instr)] = len(pool)
                            pool.append(instr)
                        entry_flat.append(pid)
                        if instr.op is OpClass.LAUNCH:
                            launch_id(instr.child)
                    entry_lens.append(len(instrs))
                    sid = counts_ids.get(id(counts))
                    if sid is None:
                        sid = counts_ids[id(counts)] = len(counts_ids)
                        _counts_to(counts_flat, counts)
                    entry_counts.append(sid)
                    entry_classes.append(cid)
                warp_entries.append(eid)
        index += 1

    w = _Writer()
    w.text(entry.name)
    w.u8(1 if entry.may_device_launch else 0)

    w.u32(len(kernels))
    for kernel in kernels:
        w.text(kernel.name)
        w.u32(kernel.cta_threads)
        w.u32(kernel.regs_per_thread)
        w.u32(kernel.smem_per_cta)
        w.u32(kernel.const_bytes)

    w.u32(len(args_ids))
    for a in (launch_kernels, launch_ctas, launch_args):
        w.arr(a)

    w.u32(len(host_ops))
    for op in host_ops:
        if op[0] == 1:
            w.u8(1)
            w.u32(op[1])
        else:
            w.u8(0)
            w.u64(op[1])
            w.u8(0 if op[2] == "h2d" else 1)

    # Instruction pool as parallel arrays (struct-of-arrays keeps the
    # payload compact and the decode loop tight).
    ops_a = array("B")
    masks_a = array("I")
    repeats_a = array("I")
    children_a = array("i")
    spaces_a = array("B")
    stores_a = array("B")
    nlines_a = array("I")
    lines_a = array("q")
    for instr in pool:
        ops_a.append(_OPS.index(instr.op))
        masks_a.append(instr.mask)
        repeats_a.append(instr.repeat)
        children_a.append(
            launch_ids[id(instr.child)] if instr.child is not None else -1
        )
        mem = instr.mem
        if mem is None:
            spaces_a.append(_NO_SPACE)
            stores_a.append(0)
            nlines_a.append(0)
        else:
            spaces_a.append(_SPACES.index(mem.space))
            stores_a.append(1 if mem.store else 0)
            nlines_a.append(len(mem.lines))
            lines_a.extend(mem.lines)
    w.u32(len(pool))
    for a in (
        ops_a, masks_a, repeats_a, children_a,
        spaces_a, stores_a, nlines_a, lines_a,
    ):
        w.arr(a)

    w.u32(len(counts_ids))
    w.arr(counts_flat)
    for a in (entry_lens, entry_flat, entry_counts, entry_classes):
        w.arr(a)
    w.arr(warp_entries)

    payload = w.payload()
    header = MAGIC + struct.pack(
        "<HBBQI",
        VERSION,
        _BYTE_ORDER,
        0,
        len(payload),
        zlib.crc32(payload),
    )
    return header + payload


def decode_bytes(data: bytes) -> CachedApplication:
    """Decode a store payload; raises ``ValueError`` on any corruption."""
    if len(data) < 20 or data[:4] != MAGIC:
        raise ValueError("not a trace-store file")
    version, order, _, payload_len, crc = struct.unpack(
        "<HBBQI", data[4:20]
    )
    if version != VERSION:
        raise ValueError(f"unsupported trace-store version {version}")
    payload = data[20:]
    if len(payload) != payload_len:
        raise ValueError("truncated trace-store file")
    if zlib.crc32(payload) != crc:
        raise ValueError("trace-store CRC mismatch")
    if order != _BYTE_ORDER:
        raise ValueError(
            f"trace-store file has byte order {order} (0 little-, 1 "
            f"big-endian); this host is {sys.byteorder}-endian"
        )

    r = _Reader(payload)
    name = r.text()
    may_device_launch = bool(r.u8())
    try:
        entry = CachedApplication.decoded(
            name, may_device_launch, lambda owner: _decode_ops(r, owner)
        )
    except (IndexError, KeyError) as exc:
        raise ValueError(f"inconsistent trace-store tables ({exc})") from exc
    if r.pos != len(payload):
        raise ValueError("trailing bytes after the trace-store tables")
    return entry


def _decode_ops(r: _Reader, owner: CachedApplication) -> list:
    """The host program of a store payload, its kernels preloaded."""
    kernels = [
        ReplayKernel(
            KernelProgram(r.text(), r.u32(), regs_per_thread=r.u32(),
                          smem_per_cta=r.u32(), const_bytes=r.u32()),
            owner,
        )
        for _ in range(r.u32())
    ]
    # Distinct argument sets only need distinct identities: decoded
    # kernels key their tables on the argument token, never read it.
    args = [{"args": i} for i in range(r.u32())]
    launch_kernels = r.arr("I")
    launch_ctas = r.arr("I")
    launch_args = r.arr("I")
    if not len(launch_kernels) == len(launch_ctas) == len(launch_args):
        raise ValueError("inconsistent launch table")
    launches = [
        KernelLaunch(kernels[k], num_ctas=n, args=args[a])
        for k, n, a in zip(launch_kernels, launch_ctas, launch_args)
    ]

    ops = []
    for _ in range(r.u32()):
        tag = r.u8()
        if tag == 1:
            ops.append(HostLaunch(launches[r.u32()]))
        else:
            nbytes = r.u64()
            ops.append(
                HostMemcpy(nbytes, "h2d" if r.u8() == 0 else "d2h")
            )

    num_pool = r.u32()
    ops_a = r.arr("B")
    masks_a = r.arr("I")
    repeats_a = r.arr("I")
    children_a = r.arr("i")
    spaces_a = r.arr("B")
    stores_a = r.arr("B")
    nlines_a = r.arr("I")
    lines_a = r.arr("q")
    if not (
        len(ops_a) == len(masks_a) == len(repeats_a) == len(children_a)
        == len(spaces_a) == len(stores_a) == len(nlines_a) == num_pool
    ):
        raise ValueError("inconsistent instruction pool")

    pool: list[WarpInstruction] = []
    line_pos = 0
    for i in range(num_pool):
        instr = WarpInstruction.__new__(WarpInstruction)
        instr.op = _OPS[ops_a[i]]
        mask = masks_a[i]
        instr.mask = mask
        instr.repeat = repeats_a[i]
        child = children_a[i]
        instr.child = launches[child] if child >= 0 else None
        space = spaces_a[i]
        if space == _NO_SPACE:
            instr.mem = None
        else:
            n = nlines_a[i]
            lines = tuple(lines_a[line_pos : line_pos + n])
            line_pos += n
            mem = MemAccess.__new__(MemAccess)
            object.__setattr__(mem, "space", _SPACES[space])
            object.__setattr__(mem, "lines", lines)
            object.__setattr__(mem, "store", bool(stores_a[i]))
            object.__setattr__(mem, "transactions", max(1, n))
            instr.mem = mem
        instr.active_lanes = popcount(mask)
        instr.kind = instruction_kind(instr.op, instr.mem)
        pool.append(instr)
    if line_pos != len(lines_a):
        raise ValueError("inconsistent line table")

    num_counts = r.u32()
    counts_flat = r.arr("Q")
    counts_table = []
    pos = 0
    for _ in range(num_counts):
        counts, pos = _counts_from(counts_flat, pos)
        counts_table.append(counts)
    if pos != len(counts_flat):
        raise ValueError("inconsistent counts table")

    entry_lens = r.arr("I")
    entry_flat = r.arr("I")
    entry_counts = r.arr("I")
    entry_classes = r.arr("I")
    if not len(entry_lens) == len(entry_counts) == len(entry_classes):
        raise ValueError("inconsistent entry table")
    entries = []
    pos = 0
    for n, sid in zip(entry_lens, entry_counts):
        entries.append(
            ([pool[j] for j in entry_flat[pos : pos + n]], counts_table[sid])
        )
        pos += n
    if pos != len(entry_flat):
        raise ValueError("inconsistent entry table")

    warp_entries = r.arr("I")
    pos = 0
    for launch in launches:
        end = pos + launch.num_ctas * launch.kernel.warps_per_cta
        warps = warp_entries[pos:end]
        launch.kernel.preload(
            launch,
            [entries[e] for e in warps],
            [entry_classes[e] for e in warps],
        )
        pos = end
    if pos != len(warp_entries):
        raise ValueError("inconsistent warp table")
    return ops


# -- source fingerprint -----------------------------------------------------

#: Packages whose source content determines trace bytes.
_FINGERPRINT_PACKAGES = ("kernels", "isa", "data", "genomics")

_fingerprint_cache: str | None = None


def source_fingerprint() -> str:
    """Hash of every trace-producing source file (cached per process)."""
    global _fingerprint_cache
    if _fingerprint_cache is None:
        digest = hashlib.sha256()
        root = Path(__file__).resolve().parent.parent
        for package in _FINGERPRINT_PACKAGES:
            for path in sorted((root / package).rglob("*.py")):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
        _fingerprint_cache = digest.hexdigest()
    return _fingerprint_cache


# -- the store --------------------------------------------------------------


class TraceStore:
    """On-disk trace store rooted at a directory."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.hits = 0
        self.builds = 0

    @classmethod
    def from_env(cls) -> "TraceStore | None":
        """The store named by ``REPRO_TRACE_STORE``, or None if unset."""
        root = os.environ.get("REPRO_TRACE_STORE", "")
        return cls(root) if root else None

    def path_for(self, key) -> Path:
        name = hashlib.sha256(
            (repr(key) + source_fingerprint()).encode()
        ).hexdigest()
        return self.root / f"{name}.trace"

    # -- load / save -------------------------------------------------------
    def load(self, key) -> CachedApplication | None:
        """The stored application for ``key``; None on miss/corruption."""
        return self._load_path(self.path_for(key))

    def _load_path(self, path: Path) -> CachedApplication | None:
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            return decode_bytes(data)
        except Exception:
            # Corrupt or foreign file: retire it and regenerate.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def save(self, key, entry: CachedApplication) -> Path:
        """Serialize ``entry`` under ``key`` (atomic publish)."""
        path = self.path_for(key)
        self._save_path(path, entry)
        return path

    def _save_path(self, path: Path, entry: CachedApplication) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(encode_bytes(entry))
        os.replace(tmp, path)

    # -- coordinated builds ------------------------------------------------
    def get_or_build(self, key, build):
        """The entry for ``key``, building (exactly once) on a cold miss.

        ``build`` returns the materialized :class:`CachedApplication`,
        which is stored and returned.  Concurrent callers with the
        same key serialize on the entry's ``flock``: one builds, the
        rest wait for the lock and then load the published file.
        """
        path = self.path_for(key)
        stored = self._load_path(path)
        if stored is not None:
            self.hits += 1
            return stored
        self.root.mkdir(parents=True, exist_ok=True)
        with open(path.with_name(path.name + ".lock"), "ab") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            # The previous holder published, or died without publishing.
            stored = self._load_path(path)
            if stored is not None:
                self.hits += 1
                return stored
            entry = build()
            self.builds += 1
            self._save_path(path, entry)
            self._log_build(path)
            return entry

    def _log_build(self, path: Path) -> None:
        """Append one line per materialization (the fan-out tests'
        exactly-once evidence).  O_APPEND keeps concurrent lines whole."""
        line = f"{path.name} pid={os.getpid()}\n".encode()
        with open(self.root / "builds.log", "ab") as log:
            log.write(line)

    # -- host-to-host sync (pack / unpack) ---------------------------------
    def entry_names(self) -> list[str]:
        """Names of every published entry, in a stable order."""
        try:
            return sorted(
                p.name for p in self.root.glob("*.trace") if p.is_file()
            )
        except OSError:
            return []

    def pack(self, dest: str | os.PathLike, names=None) -> int:
        """Archive store entries into one transferable file.

        The archive records the packing host's source fingerprint and a
        per-entry CRC32, so :meth:`unpack` on the receiving host can
        reject both a stale source tree and bytes damaged in transit.
        ``names`` restricts the archive to those entries (default:
        everything published).  Returns the number of entries packed.
        """
        selected = self.entry_names() if names is None else list(names)
        dest = Path(dest)
        tmp = dest.with_name(f"{dest.name}.{os.getpid()}.tmp")
        count = 0
        with open(tmp, "wb") as fh:
            fh.write(PACK_MAGIC + struct.pack("<H", PACK_VERSION))
            fingerprint = source_fingerprint().encode()
            fh.write(struct.pack("<I", len(fingerprint)) + fingerprint)
            fh.write(struct.pack("<I", len(selected)))
            for name in selected:
                data = (self.root / name).read_bytes()
                raw = name.encode()
                fh.write(struct.pack("<I", len(raw)) + raw)
                fh.write(struct.pack("<QI", len(data), zlib.crc32(data)))
                fh.write(data)
                count += 1
        os.replace(tmp, dest)
        return count

    def unpack(self, src: str | os.PathLike) -> int:
        """Import a :meth:`pack` archive into this store.

        Unlike :meth:`load` (which silently retires corrupt files and
        regenerates), importing foreign bytes fails *loudly*: a wrong
        magic/version, a fingerprint from a different source tree, a
        per-entry CRC mismatch, or an unsafe entry name all raise
        ``ValueError`` and nothing from the archive is kept — syncing
        must never plant traces the local source could not have
        produced.  Returns the number of entries written.
        """
        data = Path(src).read_bytes()
        r = _Reader(data)
        if r._take(4) != PACK_MAGIC:
            raise ValueError(f"{src} is not a trace-store archive")
        (version,) = struct.unpack("<H", r._take(2))
        if version != PACK_VERSION:
            raise ValueError(
                f"unsupported trace archive version {version}"
            )
        fingerprint = r.text()
        if fingerprint != source_fingerprint():
            raise ValueError(
                f"{src} was packed against a different source tree "
                f"(fingerprint {fingerprint[:12]}..., local "
                f"{source_fingerprint()[:12]}...); re-warm instead of "
                "importing stale traces"
            )
        entries = []
        for _ in range(r.u32()):
            name = r.text()
            if (
                not name.endswith(".trace")
                or "/" in name or "\\" in name or name.startswith(".")
            ):
                raise ValueError(f"unsafe entry name {name!r} in {src}")
            size, crc = struct.unpack("<QI", r._take(12))
            payload = r._take(size)
            if zlib.crc32(payload) != crc:
                raise ValueError(
                    f"entry {name} in {src} failed its CRC check; "
                    "archive corrupt, nothing imported"
                )
            entries.append((name, payload))
        if r.pos != len(data):
            raise ValueError(
                f"{src} has {len(data) - r.pos} trailing byte(s) past the "
                "last entry; archive damaged, nothing imported"
            )
        # All entries validated: publish each atomically.
        self.root.mkdir(parents=True, exist_ok=True)
        for name, payload in entries:
            path = self.root / name
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        return len(entries)

"""Compiled native batch-predict tier for :class:`FlatTree`.

The paper's deployability argument (§6.4) is that a distilled tree is
*compilable*: a few hundred branchless comparisons that run anywhere,
from a SmartNIC to a switch pipeline.  ``tree_to_c`` already emits the
per-decision nested if/else artifact for device offload; this module is
the *server-side* counterpart — a batch kernel compiled per artifact
with the platform C compiler and dlopened back into the process, so the
serving tier gets machine-code throughput without any new Python
dependency.

Kernel design (what ``emit_kernel_source`` generates):

* **breadth-first node layout** — nodes are renumbered level by level so
  the top of the tree, which every row traverses, packs into the first
  cache lines; sibling lookups in the hot early levels stay in L1;
* **compact tables** — ``int16`` feature ids, ``int32`` packed children
  (``KIDS[2*node + go_right]``, leaves self-loop exactly like
  ``FlatTree.children_flat``), thresholds stored as ``float`` when every
  split point survives a float32 round-trip losslessly (the comparison
  still happens in double, so quantization never changes a decision) and
  ``double`` otherwise;
* **a branchless interleaved walk** — eight rows advance in lockstep
  through the dispatch tables (one dependent-load chain per row, eight
  chains in flight for ILP), with the depth loop partially unrolled;
  trees deeper than the dense cutoff fall back to a per-row sentinel
  walk (same shape as ``FlatTree._apply_compacting``);
* **preorder outputs** — ``repro_predict_batch`` writes the *preorder*
  leaf id per row (the BFS->preorder map is baked into the kernel), so
  every Python-side gather (``value``, ``value_argmax``) is bit-for-bit
  identical to the numpy backend by construction.
  ``repro_predict_class`` additionally bakes in the per-node argmax
  table for gather-free classification.

Compiled objects are cached under ``~/.cache/repro-kernels/<hash>.so``
(override with ``REPRO_KERNEL_CACHE``), keyed by a content hash over the
emitted tables plus the kernel ABI version — recompiles of the same tree
are free and every worker process dlopens the same binary.  Writes are
atomic (tempfile + ``os.replace``, the ``teachers/cache`` pattern) so
concurrent publishes of the same artifact can never tear a ``.so``, and
the cache is LRU-pruned by mtime (``REPRO_KERNEL_CACHE_LIMIT``, default
128 kernels).

Compiles are single-flight per kernel hash within a process: a caller
that finds another thread compiling the same tree waits for that
compile and loads its result.  A compile can be cancelled through a
``threading.Event``; the compiler runs in its own process group, so a
cancel kills it with everything it started.

Everything here is best-effort by contract: no compiler, a compile
error, a hash mismatch at dlopen, or a corrupt cache entry must degrade
to the numpy backend with a counter bump (:func:`native_stats`), never
an exception on a serve path.  Backend selection honours
``REPRO_TREE_BACKEND`` (``numpy`` | ``native`` | ``auto``).  ``native``
sends every predict through a kernel and compiles one when it has to.
``auto`` never compiles: it uses a kernel already attached to the tree,
or one it finds in the cache.  A serving tier compiles a published
tree's kernel on its own compile thread, off the publish path
(:class:`repro.serve.kernels.KernelCompiler`), and attaches it when
ready.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

#: ABI version of the generated kernels; bump when exported symbols or
#: their signatures change (stale cached kernels then fail the api
#: check at load and are recompiled).
KERNEL_API = 1
#: Generator version folded into every kernel hash; bump on any codegen
#: change so stale cache entries can never serve a new layout.
KERNEL_VERSION = 1

#: Trees wider than this don't get kernels (emitted source would be
#: absurd); far beyond anything distillation produces.
MAX_KERNEL_NODES = 1 << 20

#: Depth cutoff between the fixed-depth interleaved walk and the
#: sentinel while-walk; mirrors ``FlatTree``'s dense/compacting split.
DENSE_DEPTH_LIMIT = 64

_CC_FLAGS = ["-O2", "-shared", "-fPIC", "-fno-math-errno"]
#: A compile that runs longer than this is killed and counts as failed.
_CC_TIMEOUT_S = 120.0
#: How often a running compile, or a caller waiting on another
#: thread's compile of the same tree, checks its cancel event.
_POLL_S = 0.01

_BACKENDS = ("numpy", "native", "auto")


class NativeUnavailable(RuntimeError):
    """This tree cannot get a kernel (internal; callers see ``None``)."""


# -- module-level counters (the metrics-visible fallback story) -----------
_STATS_LOCK = threading.Lock()
_STATS: Dict[str, int] = {}
_LAST_ERROR: Optional[str] = None
#: Event sinks with the signature of
#: :meth:`repro.obs.events.EventJournal.emit`, newest last.  Each live
#: serving tier (or worker replica) installs its journal here so silent
#: kernel degradations surface as ``kernel_fallback`` events, not just a
#: counter an operator has to know to watch; the newest live one
#: receives them.
_EVENT_HOOKS: List[Any] = []
#: Kernel hash -> lock held while that kernel compiles (single flight).
_FLIGHTS_LOCK = threading.Lock()
_FLIGHTS: Dict[str, threading.Lock] = {}


def _reset_locks_in_child() -> None:
    """A forked child inherits every lock in the state it had at the
    fork, possibly held by a parent thread that does not exist in the
    child (a compile thread mid-compile).  Start the child clean."""
    global _STATS_LOCK, _FLIGHTS_LOCK
    _STATS_LOCK = threading.Lock()
    _FLIGHTS_LOCK = threading.Lock()
    _FLIGHTS.clear()


os.register_at_fork(after_in_child=_reset_locks_in_child)


def add_event_hook(hook) -> None:
    """Install an event sink, called as ``hook("kernel_fallback",
    severity=..., labels=..., **fields)``.  Process-global: the newest
    installed hook receives the events, until it is removed with
    :func:`remove_event_hook`.  Exceptions from the hook are swallowed
    on the serving path."""
    _EVENT_HOOKS.append(hook)


def remove_event_hook(hook) -> None:
    """Uninstall ``hook`` (a no-op when it is not installed), so events
    go back to the previously installed one."""
    try:
        _EVENT_HOOKS.remove(hook)
    except ValueError:
        pass


def _emit_event(**fields) -> None:
    try:
        hook = _EVENT_HOOKS[-1]
    except IndexError:
        return
    try:
        hook("kernel_fallback", severity="warn", labels=None, **fields)
    except Exception:  # noqa: BLE001 - telemetry must not break serving
        pass


def _bump(key: str, count: int = 1) -> None:
    with _STATS_LOCK:
        _STATS[key] = _STATS.get(key, 0) + count


def _note_error(reason: str) -> None:
    global _LAST_ERROR
    with _STATS_LOCK:
        _LAST_ERROR = reason


def note_fallback(rows: int) -> None:
    """Record rows served by numpy although native was expected."""
    _bump("fallback_rows", rows)
    _emit_event(rows=int(rows), last_error=last_error())


def native_stats() -> Dict[str, Any]:
    """Snapshot of the module counters (compiles, hits, fallbacks)."""
    with _STATS_LOCK:
        out: Dict[str, Any] = dict(_STATS)
        out["last_error"] = _LAST_ERROR
        return out


def snapshot() -> Dict[str, int]:
    """Counters-only snapshot (no ``last_error``), suitable as the
    baseline for :func:`delta`.

    The counters are process-global and cumulative — back-to-back
    benchmarks or tests reading :func:`native_stats` directly see each
    other's compiles and fallbacks.  Take a ``snapshot()`` before the
    measured section and ``delta(before)`` after to isolate it without
    the destructive :func:`reset_native_stats`.
    """
    with _STATS_LOCK:
        return dict(_STATS)


def delta(since: Dict[str, int]) -> Dict[str, int]:
    """Per-key counter increments since a :func:`snapshot` baseline.

    Keys unseen in ``since`` count from zero; keys that have not moved
    are omitted, so an empty dict means "nothing happened".
    """
    with _STATS_LOCK:
        current = dict(_STATS)
    out: Dict[str, int] = {}
    for key, value in current.items():
        moved = value - since.get(key, 0)
        if moved:
            out[key] = moved
    return out


def last_error() -> Optional[str]:
    with _STATS_LOCK:
        return _LAST_ERROR


def reset_native_stats() -> None:
    """Test helper: zero the counters and clear the last error."""
    global _LAST_ERROR
    with _STATS_LOCK:
        _STATS.clear()
        _LAST_ERROR = None


# -- configuration --------------------------------------------------------
def backend_mode(explicit: Optional[str] = None) -> str:
    """Resolve the effective backend: explicit arg > env > ``auto``."""
    mode = explicit or os.environ.get("REPRO_TREE_BACKEND") or "auto"
    if mode not in _BACKENDS:
        raise ValueError(
            f"unknown tree backend {mode!r}; expected one of {_BACKENDS}"
        )
    return mode


def cache_dir() -> Path:
    """Kernel cache root (``REPRO_KERNEL_CACHE`` overrides)."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


def cache_limit() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_KERNEL_CACHE_LIMIT", 128)))
    except ValueError:
        return 128


def find_compiler() -> Optional[List[str]]:
    """The platform C compiler invocation, or None when there is none.

    Honours ``CC`` first, then the conventional names.  Re-probed on
    every call so tests (and machines that gain a toolchain) see the
    current truth; ``shutil.which`` is cheap next to a compile.
    """
    env_cc = os.environ.get("CC")
    candidates = [env_cc] if env_cc else []
    candidates += ["cc", "gcc", "clang"]
    for name in candidates:
        if name and shutil.which(name):
            return [name]
    return None


# -- kernel layout + source emission --------------------------------------
def _bfs_tables(flat: Any) -> Dict[str, np.ndarray]:
    """Reorder the preorder flat arrays breadth-first for the kernel.

    Returns the dispatch tables the source embeds: ``feat`` (int16,
    ``-1`` at leaves), ``thr`` (float64, zeroed at leaves), ``kids``
    (int32 packed children in BFS ids, leaves self-loop), ``leaf``
    (int32 BFS id -> preorder id) and ``cls`` (int32 per-node argmax in
    BFS order).
    """
    n = int(flat.node_count)
    if n > MAX_KERNEL_NODES:
        raise NativeUnavailable(f"tree too large for a kernel ({n} nodes)")
    feature = np.asarray(flat.feature, dtype=np.int64)
    if feature.size and int(feature.max()) > np.iinfo(np.int16).max:
        raise NativeUnavailable("feature ids exceed int16 range")
    left = np.asarray(flat.children_left, dtype=np.int64)
    right = np.asarray(flat.children_right, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)   # BFS position -> preorder id
    pos = np.empty(n, dtype=np.int64)     # preorder id -> BFS position
    head = tail = 0
    order[tail] = 0
    tail += 1
    while head < tail:
        node = order[head]
        pos[node] = head
        head += 1
        if feature[node] >= 0:
            order[tail] = left[node]
            order[tail + 1] = right[node]
            tail += 2
    if tail != n:
        raise NativeUnavailable("tree arrays are not a single rooted tree")
    feat = feature[order]
    leaf_mask = feat < 0
    thr = np.where(leaf_mask, 0.0,
                   np.asarray(flat.threshold, dtype=np.float64)[order])
    self_idx = np.arange(n, dtype=np.int64)
    safe_child = lambda kids_: pos[np.where(leaf_mask, 0, kids_[order])]
    kids = np.empty(2 * n, dtype=np.int32)
    kids[0::2] = np.where(leaf_mask, self_idx, safe_child(left))
    kids[1::2] = np.where(leaf_mask, self_idx, safe_child(right))
    return {
        "feat": feat.astype(np.int16),
        "thr": thr,
        "kids": kids,
        "leaf": order.astype(np.int32),
        "cls": np.asarray(flat.value_argmax)[order].astype(np.int32),
    }


def _quantizes_lossless(thr: np.ndarray) -> bool:
    thr32 = thr.astype(np.float32)
    with np.errstate(invalid="ignore"):
        return bool(np.all(thr32.astype(np.float64) == thr))


def kernel_hash(flat: Any) -> str:
    """Content hash naming this tree's kernel in the cache.

    Covers everything that determines the emitted source — the BFS
    dispatch tables, the quantization decision, and the generator/ABI
    versions — so equal hashes mean byte-equal source.
    """
    tables = _bfs_tables(flat)
    digest = hashlib.sha256()
    digest.update(
        f"repro-kernel:v{KERNEL_VERSION}:api{KERNEL_API}:"
        f"q{int(_quantizes_lossless(tables['thr']))}".encode()
    )
    for key in ("feat", "thr", "kids", "leaf", "cls"):
        arr = np.ascontiguousarray(tables[key])
        digest.update(key.encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()[:16]


def _c_array(name: str, ctype: str, values, fmt=str) -> str:
    body = ",".join(fmt(v) for v in values)
    return f"static const {ctype} {name}[] = {{{body}}};\n"


_INTERLEAVE = 8

_DENSE_LEVEL = "n{j} = KIDS[2*n{j} + !(r{j}[FEAT[n{j}]] < THR[n{j}])];"

_BATCH_FN = """
void {sym}(const double * restrict x, int64_t n_rows,
           int64_t n_feat, int32_t * restrict out) {{
    int64_t i = 0;
    for (; i + {w} <= n_rows; i += {w}) {{
{rows}
{init}
        _Pragma("GCC unroll 4")
        for (int d = 0; d < MAX_DEPTH; ++d) {{
{levels}
        }}
{stores}
    }}
    for (; i < n_rows; ++i)
        out[i] = {table}[walk(x + (size_t)i * n_feat)];
}}
"""


def emit_kernel_source(flat: Any, khash: Optional[str] = None) -> str:
    """Generate the C source of one tree's batch-predict kernel."""
    tables = _bfs_tables(flat)
    if khash is None:
        khash = kernel_hash(flat)
    feat = tables["feat"]
    thr = tables["thr"]
    lossless = _quantizes_lossless(thr)
    thr_type = "float" if lossless else "double"
    max_depth = int(flat.max_depth)
    deep = max_depth > DENSE_DEPTH_LIMIT
    # The dense walk indexes FEAT at self-looping leaves, so leaves get
    # feature 0 there (the comparison is dead, the gather must be
    # in-bounds); the sentinel walk needs the -1 leaf marker instead.
    feat_table = feat if deep else np.where(feat < 0, 0, feat)
    min_features = int(feat.max(initial=-1)) + 1

    src = [
        "/* generated by repro.core.tree.native — do not edit */\n",
        "#include <stdint.h>\n#include <stddef.h>\n\n",
        f"#define MAX_DEPTH {max_depth}\n\n",
        _c_array("FEAT", "int16_t", feat_table),
        # float.hex() round-trips the double exactly (C99 hexfloats);
        # for the float table the narrowing conversion is exact by the
        # losslessness check above.
        _c_array("THR", thr_type, thr, fmt=lambda v: float(v).hex()),
        _c_array("KIDS", "int32_t", tables["kids"]),
        _c_array("LEAF", "int32_t", tables["leaf"]),
        _c_array("CLS", "int32_t", tables["cls"]),
        f'\nstatic const char HASH[] = "{khash}";\n',
        f"int32_t repro_kernel_api(void) {{ return {KERNEL_API}; }}\n",
        "const char *repro_kernel_hash(void) { return HASH; }\n",
        "int32_t repro_kernel_min_features(void) "
        f"{{ return {min_features}; }}\n",
        "int32_t repro_kernel_node_count(void) "
        f"{{ return {len(feat)}; }}\n\n",
    ]
    if deep:
        src.append(
            "static int32_t walk(const double *row) {\n"
            "    int32_t nd = 0;\n"
            "    int16_t f = FEAT[nd];\n"
            "    while (f >= 0) {\n"
            "        nd = KIDS[2*nd + !(row[f] < THR[nd])];\n"
            "        f = FEAT[nd];\n"
            "    }\n"
            "    return nd;\n"
            "}\n"
        )
        # Interleaving rows of wildly different path lengths buys
        # nothing on a chain-shaped tree; per-row sentinel walks only.
        for sym, table in (("repro_predict_batch", "LEAF"),
                           ("repro_predict_class", "CLS")):
            src.append(
                f"\nvoid {sym}(const double * restrict x, int64_t n_rows,"
                "\n           int64_t n_feat, int32_t * restrict out) {\n"
                "    for (int64_t i = 0; i < n_rows; ++i)\n"
                f"        out[i] = {table}"
                "[walk(x + (size_t)i * n_feat)];\n"
                "}\n"
            )
        return "".join(src)

    src.append(
        "static int32_t walk(const double *row) {\n"
        "    int32_t nd = 0;\n"
        "    for (int d = 0; d < MAX_DEPTH; ++d)\n"
        "        nd = KIDS[2*nd + !(row[FEAT[nd]] < THR[nd])];\n"
        "    return nd;\n"
        "}\n"
    )
    w = _INTERLEAVE
    rows = "\n".join(
        f"        const double *r{j} = x + (size_t)(i + {j}) * n_feat;"
        for j in range(w)
    )
    init = "        " + " ".join(f"int32_t n{j} = 0;" for j in range(w))
    levels = "\n".join(
        "            " + _DENSE_LEVEL.format(j=j) for j in range(w)
    )
    for sym, table in (("repro_predict_batch", "LEAF"),
                       ("repro_predict_class", "CLS")):
        stores = "\n".join(
            f"        out[i + {j}] = {table}[n{j}];" for j in range(w)
        )
        src.append(_BATCH_FN.format(
            sym=sym, w=w, rows=rows, init=init, levels=levels,
            stores=stores, table=table,
        ))
    return "".join(src)


# -- cache plumbing (atomic writes, LRU pruning) --------------------------
def _atomic_write(path: Path, data: bytes) -> None:
    """Write-then-rename so concurrent writers can never tear ``path``.

    Same pattern as ``teachers/cache.save_weights``: each writer lands
    its bytes in a private tempfile in the destination directory, then
    ``os.replace`` publishes it atomically — two processes compiling
    the same artifact at once both succeed, last writer wins, and every
    reader only ever sees a complete file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.stem}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _prune_cache(root: Path) -> None:
    """LRU-evict compiled kernels beyond the cache limit (by mtime)."""
    try:
        entries = sorted(
            root.glob("*.so"),
            key=lambda p: p.stat().st_mtime,
            reverse=True,
        )
    except OSError:
        return
    for stale in entries[cache_limit():]:
        for path in (stale, stale.with_suffix(".c"),
                     stale.with_suffix(".json")):
            try:
                path.unlink()
            except OSError:
                pass


def _touch(path: Path) -> None:
    try:
        os.utime(path, None)
    except OSError:
        pass


# -- loading --------------------------------------------------------------
class NativeKernel:
    """One dlopened kernel: hash-verified, ready for batch calls."""

    __slots__ = ("hash", "path", "min_features", "node_count",
                 "provenance", "_lib", "_batch", "_class")

    def __init__(self, path: Path, expect_hash: str) -> None:
        lib = ctypes.CDLL(str(path))
        lib.repro_kernel_api.restype = ctypes.c_int32
        lib.repro_kernel_hash.restype = ctypes.c_char_p
        lib.repro_kernel_min_features.restype = ctypes.c_int32
        lib.repro_kernel_node_count.restype = ctypes.c_int32
        api = int(lib.repro_kernel_api())
        if api != KERNEL_API:
            raise NativeUnavailable(
                f"kernel {path.name} speaks ABI {api}, "
                f"this runtime speaks {KERNEL_API}"
            )
        embedded = lib.repro_kernel_hash().decode("ascii")
        if embedded != expect_hash:
            raise NativeUnavailable(
                f"kernel {path.name} failed hash verification: embeds "
                f"{embedded}, expected {expect_hash}"
            )
        arg_types = [
            ctypes.POINTER(ctypes.c_double), ctypes.c_int64,
            ctypes.c_int64, ctypes.POINTER(ctypes.c_int32),
        ]
        for sym in ("repro_predict_batch", "repro_predict_class"):
            fn = getattr(lib, sym)
            fn.restype = None
            fn.argtypes = arg_types
        self.hash = expect_hash
        self.path = path
        self.min_features = int(lib.repro_kernel_min_features())
        self.node_count = int(lib.repro_kernel_node_count())
        self.provenance = _read_provenance(path)
        self._lib = lib
        self._batch = lib.repro_predict_batch
        self._class = lib.repro_predict_class

    def _call(self, fn, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("kernels expect a 2-D matrix")
        if x.shape[1] < self.min_features:
            raise NativeUnavailable(
                f"kernel needs >= {self.min_features} features, "
                f"batch has {x.shape[1]}"
            )
        out = np.empty(x.shape[0], dtype=np.int32)
        if x.shape[0]:
            # ctypes releases the GIL for the duration of the call.
            fn(
                x.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
                x.shape[0], x.shape[1],
                out.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)),
            )
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Preorder leaf id per row (``FlatTree.apply`` semantics)."""
        return self._call(self._batch, x)

    def predict_class(self, x: np.ndarray) -> np.ndarray:
        """Argmax class per row, gather baked into the kernel."""
        return self._call(self._class, x)

    def __repr__(self) -> str:
        return (f"NativeKernel(hash={self.hash}, nodes={self.node_count}, "
                f"path={str(self.path)!r})")


def _read_provenance(path: Path) -> Dict[str, Any]:
    try:
        meta = json.loads(path.with_suffix(".json").read_text())
        if isinstance(meta, dict):
            return meta
    except (OSError, ValueError):
        pass
    return {}


def _load_kernel(path: Path, expect_hash: str) -> Optional[NativeKernel]:
    try:
        return NativeKernel(path, expect_hash)
    except Exception as exc:  # noqa: BLE001 - any dlopen/verify failure
        _bump("load_failures")
        _note_error(f"load {path.name}: {exc}")
        return None


def _run_compiler(command: List[str], log_path: Path,
                  cancel: Optional[threading.Event]) -> None:
    """Run one compiler invocation, its stderr going to ``log_path``.

    Raises :class:`NativeUnavailable` on a non-zero exit, a timeout or a
    cancel; every exit path leaves no compiler process running.  The
    compiler gets no pipe: a shard worker forked meanwhile inherits the
    parent's descriptors, and an inherited pipe end would keep the
    compiler waiting for an end of file that never comes.
    """
    # Its own process group (so a kill reaches cc1 and as too), but not
    # its own session: a new session is a new scheduler autogroup, which
    # a busy serving process starves of CPU.
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=log, process_group=0,
        )
    deadline = time.monotonic() + _CC_TIMEOUT_S
    try:
        while True:
            try:
                proc.wait(timeout=_POLL_S)
                break
            except subprocess.TimeoutExpired:
                if cancel is not None and cancel.is_set():
                    raise NativeUnavailable("compile cancelled")
                if time.monotonic() > deadline:
                    raise NativeUnavailable(
                        f"{command[0]} timed out after {_CC_TIMEOUT_S:.0f}s"
                    )
    finally:
        if proc.returncode is None:
            # The compiler and what it started (cc1, as) share its
            # process group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass
            proc.wait()
    if proc.returncode != 0:
        text = log_path.read_text(errors="replace").strip()
        raise NativeUnavailable(
            f"{command[0]} failed ({proc.returncode}): {text[:400]}"
        )


def compile_kernel(flat: Any, khash: Optional[str] = None,
                   cancel: Optional[threading.Event] = None) -> Path:
    """Emit + compile one kernel into the cache; returns the ``.so``.

    Raises :class:`NativeUnavailable` when there is no compiler, the
    compile fails, or ``cancel`` is set while it runs (the compiler is
    killed) — :func:`ensure_kernel` is the never-raising wrapper.
    """
    if khash is None:
        khash = kernel_hash(flat)
    compiler = find_compiler()
    if compiler is None:
        raise NativeUnavailable("no C compiler on PATH (cc/gcc/clang)")
    source = emit_kernel_source(flat, khash)
    root = cache_dir()
    so_path = root / f"{khash}.so"
    c_path = root / f"{khash}.c"
    _atomic_write(c_path, source.encode())
    command = compiler + _CC_FLAGS
    with tempfile.TemporaryDirectory(prefix="repro-kernel-") as tmp:
        tmp_so = Path(tmp) / f"{khash}.so"
        _run_compiler(command + ["-o", str(tmp_so), str(c_path)],
                      Path(tmp) / "cc.log", cancel)
        if not tmp_so.exists():
            raise NativeUnavailable(f"{command[0]} wrote no {tmp_so.name}")
        _atomic_write(so_path, tmp_so.read_bytes())
    _atomic_write(
        root / f"{khash}.json",
        json.dumps({
            "hash": khash,
            "kernel_api": KERNEL_API,
            "kernel_version": KERNEL_VERSION,
            "compiler": command[0],
            "flags": _CC_FLAGS,
            "quantized": _quantizes_lossless(_bfs_tables(flat)["thr"]),
        }, indent=2).encode(),
    )
    _prune_cache(root)
    return so_path


def _load_cached(khash: str) -> Optional[NativeKernel]:
    """The cached kernel for ``khash``, or None (missing or corrupt)."""
    path = cache_dir() / f"{khash}.so"
    if not path.exists():
        return None
    kernel = _load_kernel(path, khash)
    if kernel is not None:
        _bump("cache_hits")
        _touch(path)
    return kernel


def _flight(khash: str) -> threading.Lock:
    with _FLIGHTS_LOCK:
        return _FLIGHTS.setdefault(khash, threading.Lock())


def ensure_kernel(flat: Any, compile: bool = True,
                  cancel: Optional[threading.Event] = None
                  ) -> Optional[NativeKernel]:
    """Load (and optionally compile) the kernel for ``flat``.

    Never raises: any failure — unkernelable tree, missing compiler,
    compile error, corrupt cache entry — returns ``None`` after
    recording a counter, which is exactly the numpy-fallback contract
    the serve path relies on.  A corrupt cache entry is recompiled.

    Compiles are single-flight per kernel hash: while one thread
    compiles a tree, other callers for the same tree wait and then load
    its result, so a process never runs the compiler twice for one
    kernel at once.  The cache probe (``compile=False``) takes no flight
    lock and never waits.  A set ``cancel`` event stops the wait or
    kills the running compiler; a cancelled call returns None and
    counts nothing.
    """
    try:
        khash = kernel_hash(flat)
    except NativeUnavailable as exc:
        _bump("unkernelable")
        _note_error(str(exc))
        return None
    except Exception as exc:  # noqa: BLE001 - hash must never escape
        _bump("unkernelable")
        _note_error(f"hash: {exc}")
        return None
    kernel = _load_cached(khash)
    if kernel is not None or not compile:
        return kernel
    flight = _flight(khash)
    while not flight.acquire(timeout=_POLL_S):
        if cancel is not None and cancel.is_set():
            return None
    try:
        # The flight we waited on may have compiled it.
        kernel = _load_cached(khash)
        if kernel is not None:
            return kernel
        try:
            so_path = compile_kernel(flat, khash, cancel=cancel)
        except Exception as exc:  # noqa: BLE001 - compile must never escape
            if cancel is not None and cancel.is_set():
                return None
            _bump("compile_failures")
            _note_error(str(exc) if isinstance(exc, NativeUnavailable)
                        else f"compile: {exc}")
            return None
        _bump("compiles")
        return _load_kernel(so_path, khash)
    finally:
        flight.release()

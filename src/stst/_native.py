"""Compile, load and type the package's C helpers on first use.

load("name") compiles name.c, beside this file, with the system C compiler
(cc), loads it as a ctypes.CDLL and types each of its stst_ functions from
the function's definition in name.c, the one place a signature is written:
double is c_double, int64_t is c_int64, a void result is None, and any
pointer is c_void_p, which takes an address, None or a bytes object. Any
other C type is a TypeError at load, never a function left untyped. load
returns None when there is no compiler or the compiler fails; callers then
keep to their Python code. Nothing is compiled at import, and no other
module types a helper or names a ctypes type.

The library goes into the user's cache, $XDG_CACHE_HOME/stst (default
~/.cache/stst); a root that is not an absolute path, such as a home that
cannot be resolved, means no cache. The folder is created mode 0700 and
used only while it is the user's own and writable by no one else. The
file name carries the sha256 of the source, the flags and the platform,
so a changed source builds anew, and it is written by an atomic
os.replace, so a concurrent process never loads half a file. When there is
no usable cache, or it cannot take or map the file, the library is
compiled into a private tempfile.mkdtemp() directory, loaded, and the
directory removed. The compiler runs at most once per helper and process:
a compiler that fails is not run again elsewhere. Deleting ~/.cache/stst
clears every build.
"""

import ctypes
import hashlib
import os
import platform
import re
import shutil
import sys
import tempfile
from pathlib import Path

__all__ = ["FLAGS", "load"]

# -ffp-contract=off: no fused multiply-add, so arithmetic rounds as written
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120
# the ctypes type of each C type a signature may use; any pointer is c_void_p
_C_TYPES = {"double": ctypes.c_double, "int64_t": ctypes.c_int64, "void": None}
# an exported definition: its result type (a line of its own allowed), name
# and parameters, then the opening brace, here or on the next line
_DEFINITION = re.compile(r"^(\w[\w\s*]*?)\s*\b(stst_\w+)\s*\(([^)]*)\)\s*\{", re.M)


def _prototypes(source: str) -> dict:
    """Each stst_ function defined in the C source text, as its name and
    (argtypes, restype); a TypeError for a type not in _C_TYPES."""
    typed = {}
    for result, name, parameters in _DEFINITION.findall(re.sub(r"/\*.*?\*/|//[^\n]*", " ", source, flags=re.S)):
        kinds = []
        for declaration in [result, *([] if parameters.strip() in ("", "void") else parameters.split(","))]:
            words = [word for word in declaration.split() if word != "const"]
            if "*" not in declaration and words[0] not in _C_TYPES:
                raise TypeError(f"{name}: no ctypes type for the C declaration {declaration.strip()!r}")
            kinds.append(ctypes.c_void_p if "*" in declaration else _C_TYPES[words[0]])
        typed[name] = (kinds[1:], kinds[0])
    return typed


def _cache_dir() -> Path | None:
    """The stst folder of the user's cache, made if missing; None unless
    its root is an absolute path, and the folder this user's own and
    writable by no one else."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # the XDG rule: a relative path is ignored
        root = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(root):  # no home: expanduser left "~" as it was
        return None
    folder = Path(root, "stst")
    try:
        folder.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = folder.stat()
    except OSError:
        return None
    if info.st_uid != os.getuid() or info.st_mode & 0o022 or not os.access(folder, os.W_OK):
        return None
    return folder


def _build(compiler: str, source: Path, target: Path) -> ctypes.CDLL | None:
    """The library at target, compiled from source through a temporary file
    beside it unless it is there already. None when the compiler fails;
    OSError when target's folder cannot take or map the file (a full disk
    or a noexec mount, say)."""
    import subprocess  # here: importing stst starts no process and loads no subprocess

    if not target.exists():
        handle, partial = tempfile.mkstemp(dir=target.parent, suffix=".so.part")
        os.close(handle)
        try:
            try:
                done = subprocess.run(
                    [compiler, *FLAGS, "-o", partial, str(source)],
                    stdin=subprocess.DEVNULL,
                    capture_output=True,
                    timeout=_COMPILE_TIMEOUT_S,
                )
            except (OSError, subprocess.SubprocessError):  # cc did not start, or ran past the timeout
                return None
            if done.returncode != 0:
                return None
            os.replace(partial, target)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    return ctypes.CDLL(str(target))


def load(name: str) -> ctypes.CDLL | None:
    """name.c compiled and loaded, with each of its stst_ functions typed
    from its definition, or None without a working C compiler."""
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    source = Path(__file__).with_name(f"{name}.c")
    try:
        code = source.read_bytes()
    except OSError:  # an install that left the source out
        return None
    signatures = _prototypes(code.decode("utf-8"))
    key = hashlib.sha256(code)
    key.update(" ".join([*FLAGS, sys.platform, platform.machine()]).encode())
    filename = f"{name}-{key.hexdigest()[:32]}.so"
    lib, folder = None, _cache_dir()
    if folder is not None:
        try:
            lib = _build(compiler, source, folder / filename)
        except OSError:  # the cache cannot take or map the file
            folder = None
    if folder is None:  # never after a failed compile: cc runs once
        with tempfile.TemporaryDirectory() as private:
            try:
                lib = _build(compiler, source, Path(private, filename))  # stays mapped once the file is gone
            except OSError:
                pass
    if lib is not None:
        for function, (argtypes, restype) in signatures.items():
            typed = getattr(lib, function)
            typed.argtypes, typed.restype = argtypes, restype
    return lib

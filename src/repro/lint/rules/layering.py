"""Layering rules: every server access goes through the blessed path.

The security argument treats the :class:`RecordingStore` wrapper as the
adversary's eye: whatever crosses it is what the server sees.  Core code
that instantiates a raw backend, opens its own socket, or deletes keys
outside the ``commit_round`` contract creates accesses the recording
layer never sees — the trace the chaos oracle audits is then a lie.
``print()`` is banned outside the CLI/dashboard because stray stdout
corrupts machine-readable CLI output and bypasses the obs export path.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Finding, Module, Rule
from repro.lint.rules._util import ImportMap, receiver_name

__all__ = [
    "NativeCryptoImportRule",
    "PrintOutsideCliRule",
    "RawBackendRule",
    "SocketOutsideNetRule",
    "UnbatchedDeleteRule",
]

#: Concrete backends; layered code receives a StorageBackend, it never
#: constructs one (construction lives in datastore wiring and tests).
_BACKENDS = {"RedisSim", "InMemoryStore", "PersistentStore", "ShardedStore"}

_CORE_SCOPES = ("repro/core/", "repro/ha/")
_WIRING_FILES = {"repro/core/datastore.py"}

_PRINT_OK = {"repro/cli.py", "repro/obs/dashboard.py"}

#: Store methods that mutate outside the atomic round commit.
_UNBATCHED = {"delete", "multi_delete"}

_STOREISH = ("store", "backend", "server", "redis", "inner", "storage")


class RawBackendRule(Rule):
    id = "OBL301"
    name = "raw-backend"
    description = ("core/ha code must not instantiate RedisSim or other "
                   "concrete backends: accesses would bypass the "
                   "RecordingStore wrapper the security audit observes")

    def check(self, module: Module) -> Iterator[Finding]:
        if not module.relpath.startswith(_CORE_SCOPES):
            return
        if module.relpath in _WIRING_FILES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name in _BACKENDS:
                yield module.finding(
                    self, node,
                    f"direct {name}() construction in core; accept an "
                    "injected StorageBackend so the RecordingStore "
                    "wrapper sees every access")


class SocketOutsideNetRule(Rule):
    id = "OBL302"
    name = "socket-outside-net"
    description = ("raw socket use outside net/ creates a server channel "
                   "the recording layer cannot observe")

    def check(self, module: Module) -> Iterator[Finding]:
        if module.relpath.startswith("repro/net/"):
            return
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "socket" or \
                            alias.name.startswith("socket."):
                        yield module.finding(
                            self, node,
                            "socket import outside net/; all transport "
                            "lives behind repro.net")
            elif isinstance(node, ast.Call):
                resolved = imports.resolve(node.func)
                if resolved and resolved.startswith("socket."):
                    yield module.finding(
                        self, node,
                        f"direct {resolved}() outside net/; use "
                        "RemoteStore / StorageServer")


class PrintOutsideCliRule(Rule):
    id = "OBL303"
    name = "print-outside-cli"
    description = ("print() outside cli.py/dashboard bypasses the obs "
                   "export path and corrupts machine-readable output")

    def check(self, module: Module) -> Iterator[Finding]:
        if module.relpath in _PRINT_OK:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "print":
                yield module.finding(
                    self, node,
                    "print() outside the CLI; emit through the obs "
                    "export/logging path instead")


#: Native crypto wheels; every import stays inside repro/crypto/ so the
#: value cipher and the PRF are the only primitives the proxy uses, each
#: pinned by known-answer tests, and a key never reaches ad-hoc crypto.
_NATIVE_CRYPTO = {"nacl", "cryptography"}

_CRYPTO_SCOPE = "repro/crypto/"


class NativeCryptoImportRule(Rule):
    id = "OBL305"
    name = "native-crypto-import"
    description = ("nacl/cryptography imports outside crypto/ add "
                   "primitives no known-answer test pins; only "
                   "repro.crypto may touch native crypto packages")

    def check(self, module: Module) -> Iterator[Finding]:
        if module.relpath.startswith(_CRYPTO_SCOPE):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module is not None:
                names = [node.module]
            else:
                continue
            for name in names:
                root = name.split(".", 1)[0]
                if root in _NATIVE_CRYPTO:
                    yield module.finding(
                        self, node,
                        f"import of native crypto package {root!r} "
                        "outside crypto/; use the KeyChain's prf and "
                        "cipher from repro.crypto instead")


class UnbatchedDeleteRule(Rule):
    id = "OBL304"
    name = "unbatched-delete"
    description = ("store.delete/multi_delete in core bypasses the "
                   "commit_round contract: deletes and puts must land "
                   "as one atomic round or a crash mid-round leaks a "
                   "partially-applied access pattern")

    def check(self, module: Module) -> Iterator[Finding]:
        if not module.relpath.startswith(_CORE_SCOPES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in _UNBATCHED):
                continue
            recv = receiver_name(func)
            if recv and any(s in recv.lower() for s in _STOREISH):
                yield module.finding(
                    self, node,
                    f"{recv}.{func.attr}() outside commit_round; round "
                    "deletes and puts must commit atomically")

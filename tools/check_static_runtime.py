#!/usr/bin/env python3
"""Fails when an executable needs a shared C++ runtime.

Usage: check_static_runtime.py EXECUTABLE

Reads the DT_NEEDED entries of the executable's ELF dynamic section, with
the standard library alone, and exits 1 if one names libstdc++.so or
libgcc_s.so: surveyor_cli links both runtimes statically
(tools/CMakeLists.txt), which saves each `serve` start the mapping and
initialisation of libstdc++.so.
"""

import struct
import sys

FORBIDDEN = ("libstdc++.so", "libgcc_s.so")
PT_LOAD = 1
PT_DYNAMIC = 2
DT_NULL = 0
DT_NEEDED = 1
DT_STRTAB = 5


def needed_libraries(path):
    """The DT_NEEDED names of an ELF64 file, in order."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"\x7fELF":
        raise ValueError(f"{path} is not an ELF file")
    if data[4] != 2:
        raise ValueError(f"{path} is not a 64-bit ELF file")
    order = "<" if data[5] == 1 else ">"
    (phoff,) = struct.unpack_from(order + "Q", data, 0x20)
    phentsize, phnum = struct.unpack_from(order + "HH", data, 0x36)
    loads = []
    dynamic = None
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            order + "IIQQQQ", data, phoff + i * phentsize)
        if p_type == PT_LOAD:
            loads.append((p_vaddr, p_offset, p_filesz))
        elif p_type == PT_DYNAMIC:
            dynamic = (p_offset, p_filesz)
    if dynamic is None:
        return []  # fully static: needs nothing

    needed = []
    strtab = None
    for at in range(dynamic[0], dynamic[0] + dynamic[1], 16):
        tag, value = struct.unpack_from(order + "qQ", data, at)
        if tag == DT_NULL:
            break
        if tag == DT_NEEDED:
            needed.append(value)
        elif tag == DT_STRTAB:
            strtab = value
    if not needed:
        return []
    # DT_STRTAB is an address; the loadable segment holding it maps it to
    # a file offset.
    base = None
    for vaddr, offset, size in loads:
        if strtab is not None and vaddr <= strtab < vaddr + size:
            base = offset + strtab - vaddr
    if base is None:
        raise ValueError(f"{path}: dynamic string table is not in the file")
    names = []
    for name_offset in needed:
        start = base + name_offset
        names.append(data[start:data.index(b"\0", start)].decode())
    return names


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    names = needed_libraries(sys.argv[1])
    print("needed: " + (", ".join(names) if names else "(none)"))
    shared = [n for n in names if n.startswith(FORBIDDEN)]
    if shared:
        print("shared C++ runtime: " + ", ".join(shared), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

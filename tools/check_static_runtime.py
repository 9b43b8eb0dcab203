#!/usr/bin/env python3
"""Fails when an executable needs a shared C++ runtime, or exports its own.

Usage: check_static_runtime.py EXECUTABLE

Reads the executable's ELF file with the standard library alone and exits 1
if a DT_NEEDED entry of its dynamic section names libstdc++.so or
libgcc_s.so, or if its dynamic symbol table defines a symbol of the C++
runtime: surveyor_cli links both runtimes statically (tools/CMakeLists.txt),
which saves each `serve` start the mapping and initialisation of
libstdc++.so, and keeps their symbols out of the table that -rdynamic fills
for the profiler.
"""

import struct
import sys

FORBIDDEN = ("libstdc++.so", "libgcc_s.so")
# Symbols every statically linked libstdc++ defines: exported, they make the
# executable an interposer for the shared runtime of any library it loads.
RUNTIME_SYMBOLS = ("__cxa_throw", "_ZSt4cout", "__gxx_personality_v0")
PT_LOAD = 1
PT_DYNAMIC = 2
DT_NULL = 0
DT_NEEDED = 1
DT_STRTAB = 5
SHT_DYNSYM = 11
SHN_UNDEF = 0


def read_elf64(path):
    """The bytes of an ELF64 file and the struct byte-order prefix."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"\x7fELF":
        raise ValueError(f"{path} is not an ELF file")
    if data[4] != 2:
        raise ValueError(f"{path} is not a 64-bit ELF file")
    return data, "<" if data[5] == 1 else ">"


def cstring(data, start):
    return data[start:data.index(b"\0", start)].decode()


def needed_libraries(path):
    """The DT_NEEDED names of an ELF64 file, in order."""
    data, order = read_elf64(path)
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
    return [cstring(data, base + name_offset) for name_offset in needed]


def exported_symbols(path):
    """The names the ELF64 file's dynamic symbol table defines."""
    data, order = read_elf64(path)
    (shoff,) = struct.unpack_from(order + "Q", data, 0x28)
    shentsize, shnum = struct.unpack_from(order + "HH", data, 0x3A)
    sections = [struct.unpack_from(order + "IIQQQQIIQQ", data,
                                   shoff + i * shentsize)
                for i in range(shnum)]
    names = set()
    for _, sh_type, _, _, offset, size, link, _, _, entsize in sections:
        if sh_type != SHT_DYNSYM or entsize == 0:
            continue
        strtab = sections[link][4]  # the linked string table's offset
        for at in range(offset, offset + size, entsize):
            name, _, _, shndx = struct.unpack_from(order + "IBBH", data, at)
            if shndx != SHN_UNDEF:
                names.add(cstring(data, strtab + name))
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
    exported = sorted(exported_symbols(sys.argv[1]).intersection(
        RUNTIME_SYMBOLS))
    if exported:
        print("exports the C++ runtime: " + ", ".join(exported),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Window-only CPU split of a sigprof dump (tools/sampler/sigprof.c).

    python3 tools/sampler/window_split.py <dump>

Keeps the samples whose stack passes through snooze::sim::Engine::run_until
(e2ebench's measured window), so set-up and the probes after the window are
left out, and prints the top 25 functions by three counts, each as a share
of the window's samples:

  self       the innermost frame is in the function
  self(bin)  the same after moving frames in shared libraries to the nearest
             calling frame in the main program; stripped libraries (libm,
             libc, libstdc++) name their internal frames after unrelated
             exported symbols, so this is the column to read for them
  inclusive  the function is anywhere on the stack (counted once a sample)

Symbols come from `nm` on the main program and each mapped library; only
functions with a symbol appear (inlined code counts for its caller).
"""
import bisect
import collections
import struct
import subprocess
import sys

ROOT = "snooze::sim::Engine::run_until"
TOP = 25


def load_segments(path):
    """PT_LOAD segments of an ELF64 file as (file offset, vaddr, size)."""
    with open(path, "rb") as f:
        header = f.read(64)
        if header[:4] != b"\x7fELF" or header[4] != 2:
            return []
        phoff = struct.unpack_from("<Q", header, 32)[0]
        phentsize, phnum = struct.unpack_from("<HH", header, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        p_type, _flags, p_offset, p_vaddr, _paddr, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


def load_symbols(path):
    """Sorted (start vaddrs, [(start, size, name)]) of the object's functions;
    the dynamic table when the object has no full symbol table."""
    symbols = []
    for extra in ([], ["-D"]):
        try:
            out = subprocess.run(["nm", "--defined-only", "-C", "-S"] + extra + [path],
                                 capture_output=True, text=True, check=False).stdout
        except OSError:
            return [], []
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in "TtWwi":
                symbols.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
        if symbols:
            break
    symbols.sort()
    return [s[0] for s in symbols], symbols


def short_name(name):
    """Drop the symbol version and the parameter list: cut at the first '('
    outside <>, {} and "(anonymous namespace)"."""
    name = name.split("@", 1)[0]
    depth = 0
    i = 0
    while i < len(name):
        c = name[i]
        if c in "<{":
            depth += 1
        elif c in ">}":
            depth -= 1
        elif c == "(" and depth == 0:
            for keep in ("(anonymous namespace)", "()"):
                if name.startswith(keep, i) and (keep != "()" or name.endswith("operator", 0, i)):
                    i += len(keep)
                    break
            else:
                return name[:i]
            continue
        i += 1
    return name


class Symbolizer:
    def __init__(self, maps_lines):
        self.mappings = []  # (start, end, file offset, path)
        for line in maps_lines:
            fields = line.split(maxsplit=5)
            if len(fields) < 6 or "x" not in fields[1] or not fields[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            self.mappings.append((start, end, int(fields[2], 16), fields[5].strip()))
        self.mappings.sort()
        self.starts = [m[0] for m in self.mappings]
        first = [line.split(maxsplit=5) for line in maps_lines[:1]]
        self.main = first[0][5].strip() if first and len(first[0]) == 6 else None
        self.objects = {}
        self.cache = {}

    def _object(self, path):
        if path not in self.objects:
            try:
                segments = load_segments(path)
            except OSError:
                segments = []
            self.objects[path] = (segments, *load_symbols(path))
        return self.objects[path]

    def lookup(self, address):
        """(object path, function name) of a code address."""
        if address in self.cache:
            return self.cache[address]
        result = ("?", "0x%x" % address)
        i = bisect.bisect_right(self.starts, address) - 1
        if i >= 0 and address < self.mappings[i][1]:
            start, _end, offset, path = self.mappings[i]
            segments, starts, symbols = self._object(path)
            file_offset = address - start + offset
            vaddr = None
            for p_offset, p_vaddr, p_filesz in segments:
                if p_offset <= file_offset < p_offset + p_filesz:
                    vaddr = file_offset - p_offset + p_vaddr
                    break
            # The nearest symbol at or below the address, as in a stripped
            # library, where internal code lies past an exported symbol's end.
            name = None
            if vaddr is not None:
                j = bisect.bisect_right(starts, vaddr) - 1
                if j >= 0:
                    name = short_name(symbols[j][2])
            base = path.rsplit("/", 1)[-1]
            result = (path, name if name else "[%s]+0x%x" % (base, file_offset))
            if path != self.main and name:
                result = (path, "[%s] %s" % (base, name))
        self.cache[address] = result
        return result


def read_dump(path):
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "maps":
        sys.exit("%s: not a sigprof dump" % path)
    end = next(i for i, line in enumerate(lines) if line.startswith("samples "))
    stacks = [[int(x, 16) for x in line.split()] for line in lines[end + 1:] if line]
    return lines[1:end], lines[end], stacks


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: window_split.py <dump>")
    dump = sys.argv[1]
    maps_lines, header, stacks = read_dump(dump)
    symbolizer = Symbolizer(maps_lines)
    self_count = collections.Counter()
    self_bin = collections.Counter()
    inclusive = collections.Counter()
    window = 0
    for stack in stacks:
        # Frames past the first are return addresses: look up the call.
        frames = [symbolizer.lookup(pc if k == 0 else pc - 1) for k, pc in enumerate(stack)]
        names = [name for _path, name in frames]
        if ROOT not in names:
            continue
        window += 1
        self_count[names[0]] += 1
        in_binary = next((name for path, name in frames if path == symbolizer.main), names[0])
        self_bin[in_binary] += 1
        for name in set(names[:names.index(ROOT) + 1]):
            inclusive[name] += 1

    print("%s: %s, %d in the window (under %s)" % (dump, header, window, ROOT))
    if window == 0:
        return
    for title, counter in (("self", self_count), ("self(bin)", self_bin),
                           ("inclusive", inclusive)):
        print("\n%-10s %7s  function" % (title, "share"))
        for name, count in counter.most_common(TOP):
            print("%10d %6.1f%%  %s" % (count, 100.0 * count / window, name))


if __name__ == "__main__":
    main()

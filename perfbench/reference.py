"""Fixed reference work that measures how fast the machine is right now.

On a shared machine the same command can run 40% faster or slower from
one minute to the next, because other tenants load the host.  The
benchmark runs this script as a child process before and after every
pipeline pass and scales the pass's wall times by how much faster or
slower the reference ran than its nominal time, so that drift of the
machine cancels while changes to the program do not: this script imports
nothing from the program.

The work mirrors the pipeline's mix: interpreter start, the numpy import,
CSV parsing, a dict fold over word sets and float formatting.
"""

import csv
import io

import numpy  # noqa: F401  (every CLI command pays this import)

ROWS = 6000


def work() -> int:
    text = "".join(
        f"w{i % 5003:04d} w{i * 7 % 5003:04d} w{i * 13 % 5003:04d} w{i * 31 % 5003:04d},"
        f"{i % 17},{i % 5},{i % 3}\n"
        for i in range(ROWS)
    )
    table = {}
    for message, a, b, c in csv.reader(io.StringIO(text)):
        total = int(a) + int(b) + int(c) + 1
        vector = (int(a) / total, int(b) / total, int(c) / total)
        for word in set(message.split()):
            entry = table.get(word)
            if entry is None:
                table[word] = [list(vector), 1]
            else:
                for k in range(3):
                    entry[0][k] += vector[k]
                entry[1] += 1
    lines = [
        word + "\t" + "\t".join(format(s / n, ".17g") for s in sums)
        for word, (sums, n) in sorted(table.items())
    ]
    return len("\n".join(lines))


if __name__ == "__main__":
    work()

"""The paper's reported numbers, transcribed for side-by-side comparison.

Tables 2 and 3 report elements scanned in thousands; Figure 8 is read
qualitatively (elapsed-time orderings and trends), so only the tables are
transcribed — its shapes are rows of :data:`repro.bench.shapes.SHAPES`.
"""

#: Table 2(a): employee vs name, 99 % of descendants join, Join-A varies.
TABLE_2A = {
    0.90: {"NIDX": 1609, "B+": 1547, "XR": 1536},
    0.70: {"NIDX": 1395, "B+": 1207, "XR": 1195},
    0.55: {"NIDX": 1234, "B+": 953, "XR": 939},
    0.40: {"NIDX": 1073, "B+": 699, "XR": 683},
    0.25: {"NIDX": 913, "B+": 444, "XR": 427},
    0.15: {"NIDX": 806, "B+": 275, "XR": 256},
    0.05: {"NIDX": 698, "B+": 105, "XR": 85},
    0.01: {"NIDX": 655, "B+": 37, "XR": 17},
}

#: Table 2(b): paper vs author (flat ancestors) — B+ cannot skip ancestors.
TABLE_2B = {
    0.90: {"NIDX": 1409, "B+": 1409, "XR": 1358},
    0.70: {"NIDX": 1208, "B+": 1208, "XR": 1057},
    0.55: {"NIDX": 1057, "B+": 1057, "XR": 830},
    0.40: {"NIDX": 906, "B+": 906, "XR": 604},
    0.25: {"NIDX": 755, "B+": 755, "XR": 377},
    0.15: {"NIDX": 654, "B+": 654, "XR": 227},
    0.05: {"NIDX": 554, "B+": 554, "XR": 75},
    0.01: {"NIDX": 513, "B+": 513, "XR": 15},
}

#: Table 3(a): employee vs name, 99 % of ancestors join, Join-D varies.
TABLE_3A = {
    0.90: {"NIDX": 1657, "B+": 1559, "XR": 1550},
    0.70: {"NIDX": 1527, "B+": 1213, "XR": 1206},
    0.55: {"NIDX": 1429, "B+": 953, "XR": 947},
    0.40: {"NIDX": 1332, "B+": 693, "XR": 689},
    0.25: {"NIDX": 1234, "B+": 433, "XR": 430},
    0.15: {"NIDX": 1169, "B+": 260, "XR": 258},
    0.05: {"NIDX": 1104, "B+": 87, "XR": 86},
    0.01: {"NIDX": 1078, "B+": 17, "XR": 17},
}

#: Table 3(b): paper vs author — descendant skipping is nesting-independent.
TABLE_3B = {
    0.90: {"NIDX": 1459, "B+": 1359, "XR": 1359},
    0.70: {"NIDX": 1359, "B+": 1057, "XR": 1057},
    0.55: {"NIDX": 1283, "B+": 830, "XR": 830},
    0.40: {"NIDX": 1208, "B+": 604, "XR": 604},
    0.25: {"NIDX": 1132, "B+": 377, "XR": 377},
    0.15: {"NIDX": 1082, "B+": 226, "XR": 226},
    0.05: {"NIDX": 1032, "B+": 75, "XR": 75},
    0.01: {"NIDX": 1011, "B+": 15, "XR": 15},
}

PAPER_TABLES = {
    "table2a": TABLE_2A,
    "table2b": TABLE_2B,
    "table3a": TABLE_3A,
    "table3b": TABLE_3B,
}

"""
Touring the commonsense taxonomy
================================

Categories are three-layer paths: visibility (Seen/Unseen), aspect
(Property/Action/Space), and a relation leaf. Only 11 combinations exist:
they are the members of the CategoryPath enum.
"""

from vckb import CategoryPath, Pos, kb_relation_to_category, parse_category, pos_to_seen_category

# The full set of valid leaves, in canonical order.
for category in CategoryPath:
    print(category.text)

# Canonical strings parse back to the same member.
category = parse_category("/Seen/Property/HasProperty")
print("\nparsed:", category.visibility.value, category.aspect.value, category.relation.value)

# Combinations outside the table are rejected.
try:
    parse_category("/Seen/Action/UsedFor")
except Exception as error:
    print("rejected:", error)

# External KB relations map into the unseen layer; everything else is ignored.
print("\nUsedFor ->", kb_relation_to_category("UsedFor"))
print("AtLocation ->", kb_relation_to_category("AtLocation"))

# Part-of-speech tags select seen leaves: adjectives are properties,
# prepositions spatial relations, active (VBG) and passive (VBN) verbs
# the two action leaves.
print()
for pos in (Pos.ADJ, Pos.PREP, Pos.VBG, Pos.VBN):
    print(pos.value, "->", pos_to_seen_category(pos))

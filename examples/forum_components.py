#!/usr/bin/env python
"""Live community structure of a Reddit-style forum, with moderation.

The paper's motivating example for add-only dynamism is a forum: "the
bipartite graph between posts and users is only ever appended to as
time moves forward; while a user/post visibility might change (e.g. due
to moderation), the data itself is often never actually deleted" (§I).

This example models both regimes:

1. **Append-only phase** — users comment on posts (bipartite edges);
   incremental Connected Components (Alg. 6) maintains live discussion
   communities; a trigger watches for two seed users ending up in the
   same community.
2. **Moderation phase** — §VI-B territory: a moderator *removes* a
   brigading user's interactions.  The generational CC handles the
   deletes asynchronously, re-labelling the split communities without
   stopping the stream.

Run:  python examples/forum_components.py
"""

import numpy as np

from repro import (
    DynamicEngine,
    EngineConfig,
    GenerationalCC,
    split_streams,
)
from repro.analytics import verify_cc
from repro.events.types import ADD, DELETE

N_USERS = 400
N_POSTS = 150
RANKS = 6

# vertex numbering: users are 0..N_USERS-1, posts N_USERS..N_USERS+N_POSTS-1
POST0 = N_USERS


def community_sizes(engine) -> dict[int, int]:
    sizes: dict[int, int] = {}
    for value in engine.state("gen-cc").values():
        label = value[1]  # the projection of (generation, label, support)
        sizes[label] = sizes.get(label, 0) + 1
    return sizes


def main() -> None:
    rng = np.random.default_rng(99)

    # Two clustered communities plus a brigading user bridging them.
    def interactions(users, posts, k):
        u = rng.choice(users, size=k)
        p = rng.choice(posts, size=k)
        return np.stack([u, p])

    left = interactions(np.arange(0, 180), np.arange(POST0, POST0 + 70), 800)
    right = interactions(np.arange(200, 380), np.arange(POST0 + 80, POST0 + 150), 800)
    brigader = 399
    bridge = np.array(
        [[brigader, brigader], [POST0 + 10, POST0 + 90]]
    )  # one foot in each community
    src = np.concatenate([left[0], right[0], bridge[0]])
    dst = np.concatenate([left[1], right[1], bridge[1]])
    order = rng.permutation(len(src))
    src, dst = src[order], dst[order]

    cc = GenerationalCC()
    engine = DynamicEngine([cc], EngineConfig(n_ranks=RANKS))

    merged = []
    engine.add_trigger(
        "gen-cc",
        # users 0 and 300 share a community once their labels agree --
        # watch user 0's label flips and compare on the fly.
        lambda v, val: val != 0
        and engine.value_of("gen-cc", 300) != 0
        and val[1] == engine.value_of("gen-cc", 300)[1],
        lambda v, val, t: merged.append(t),
        vertex=0,
        once=True,
    )

    engine.attach_streams(split_streams(src, dst, RANKS))
    engine.run()

    sizes = sorted(community_sizes(engine).values(), reverse=True)
    print(f"after append-only phase: {len(sizes)} communities, largest {sizes[:3]}")
    if merged:
        print(f"  [trigger] users 0 and 300 first shared a community at "
              f"t={merged[0] * 1e3:.2f}ms (the brigader bridged them)")

    # Moderation: delete every interaction of the brigading user.
    mod_events = [
        (DELETE, brigader, int(p), 0)
        for p, _w in [(POST0 + 10, 1), (POST0 + 90, 1)]
    ]
    engine.attach_streams(split_streams(
        np.array([e[1] for e in mod_events]),
        np.array([e[2] for e in mod_events]),
        1,
        kinds=np.array([DELETE] * len(mod_events)),
    ))
    engine.run()

    sizes_after = sorted(community_sizes(engine).values(), reverse=True)
    print(f"after moderation deletes: largest communities {sizes_after[:3]}")
    label0 = engine.value_of("gen-cc", 0)[1]
    label300 = engine.value_of("gen-cc", 300)[1]
    print(f"users 0 and 300 same community now? {label0 == label300}")

    mismatches = verify_cc(engine, "gen-cc", value_of=lambda v: v[1])
    print(f"verified against static recompute: "
          f"{'OK' if not mismatches else mismatches[:3]}")


if __name__ == "__main__":
    main()

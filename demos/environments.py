"""
Tour of the five desk-scale tasks. Each environment hides one parameter
(a centre of mass, a friction value, or a mechanism direction) that the
camera cannot see in the initial frame; only interaction reveals it.
"""

import numpy as np

from replan import (
    EnvAction,
    EnvInstance,
    EnvKind,
    all_instances,
    execute,
    hidden_values,
    plan_to_action,
    reset,
    scripted_action,
)


def run_example():
    # Step 1: the hidden-parameter tables.
    for kind in EnvKind:
        values = hidden_values(kind)
        head = ", ".join(str(v) for v in values[:4])
        print(f"{kind.value:10s} {len(values):2d} values: {head}{', ...' if len(values) > 4 else ''}")

    # Step 2: the first frame does not betray theta. Every reset of a task
    # renders the same pixels regardless of the hidden value.
    frames = {bytes(reset(env).tobytes()) for env in all_instances(EnvKind.PUSH_BAR)}
    print("\ndistinct pushbar reset frames over all 24 offsets:", len(frames))

    # Step 3: a privileged scripted policy knows theta and always succeeds.
    wins = total = 0
    for kind in EnvKind:
        for env in all_instances(kind):
            wins += execute(env, scripted_action(env)).success
            total += 1
    print(f"scripted policy: {wins}/{total} successes across all instances")

    # Step 4: executing an action yields an 8-frame rollout video, which
    # can be decoded back into the action that produced it.
    env = EnvInstance(EnvKind.PUSH_BAR, -0.12)
    outcome = execute(env, scripted_action(env))
    video = outcome.video
    print("\nrollout:", video.pixels.shape, video.pixels.dtype, "success:", outcome.success)
    decoded = plan_to_action(env.kind, video)
    print(f"decoded contact offset {decoded.value:+.4f} m vs theta {env.theta_value:+.3f} m")

    # Step 5: a wrong guess fails visibly. Pushing the bar at the centre
    # while its mass sits at -0.12 m spins it away from the target.
    wrong = execute(env, EnvAction(EnvKind.PUSH_BAR, 0.0))
    print("centred push succeeds?", wrong.success)

    # The same pattern drives the discrete tasks: the lid of the box
    # either lifts or slides; trying the wrong mode leaves it stuck.
    box = EnvInstance(EnvKind.OPEN_BOX, "lift")
    stuck = execute(box, EnvAction(EnvKind.OPEN_BOX, "slide"))
    moved = np.abs(stuck.video.pixels[-1] - stuck.video.pixels[0]).max()
    print("wrong-mode open attempt succeeds?", stuck.success, " max pixel change:", f"{moved:.2f}")


if __name__ == "__main__":
    run_example()

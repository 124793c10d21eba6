/*
 * The compiled core of voxevo's mass-spring engine (see sim_core.py): the
 * step, the episode loop around it, the actuation targets and both
 * controllers, the modular network included; the bridge strip's static
 * solve (vx_settle); and the builder of a batch's worlds (vx_count,
 * vx_build), set out at the end of this file.
 *
 * vx_run steps a union of worlds until the first of: a step on which a
 * world diverged; a step after which some mass has !(x < finish_reach);
 * and the stop time. At each control step it sets the targets from the
 * batch's controller table: the fixed alternation, or the modular network
 * on the observations it fills (vx_act). A step's gravity is the Table's
 * constant, and the worlds its last step saw diverge are flagged in the
 * Table's per-world bad row, which the caller reads.
 *
 * The kernel keeps no mutable global state: its only file-scope data are
 * static const tables, and a call writes only through the Table, Brain or
 * Builder it is given and the arrays they point into, and vx_settle into
 * the work rows it is given. So calls on distinct Tables and Brains may run
 * at once, each on its own thread; ctypes drops the GIL for every call, and
 * tasks.run_episodes steps one union per CPU so.
 *
 * The step's functions take one Table: a union's sizes, the engine's
 * constants and pointers to every table of the union, which the builder lays
 * out in one buffer (vx_count, vx_build). The network's functions (vx_presum,
 * vx_mlp) take a batch's Brain, and its control step (vx_act) both; the
 * builder's take a Builder and the Table they build. Python declares none of
 * these a second time: it reads them from this file's text, comments left
 * out. A struct it fills is a "typedef struct { ... } Name;" in which every
 * declaration is "[const] type a, b;" with type int64_t or double, or
 * "[const] type *a, *b;" with any type; it mirrors the struct field for
 * field (sim_core._struct), and points a field only at a C-contiguous array
 * of the type it points to (sim_core._point). A function it calls is
 * defined on a line that begins "[VX_CLONES ]type vx_name(", its result
 * void, int64_t or double and each parameter one name of those forms
 * (sim_core._load_kernel). A field or parameter of another form fails the
 * load, as does a vx_ function defined on a line of another form. The
 * arithmetic is numpy's, operation for operation and in the same order, so
 * every trajectory keeps its bits:
 *  - each expression is evaluated as the numpy code wrote it, one IEEE
 *    double operation at a time; the build flags forbid contraction into
 *    fused multiply-adds and any fast-math reassociation;
 *  - sqrt is the correctly rounded square root and hypot is libm's, as in
 *    numpy;
 *  - np.maximum, np.minimum and np.clip are reproduced with their NaN
 *    propagation and their choice between equal operands (see below);
 *  - sums that numpy forms with np.bincount or a reduction start from +0.0
 *    and add their terms in numpy's order.
 *
 * Each mass's force is such a sum. numpy formed it with one np.bincount over
 * a table of terms, which tests/oracles.py still builds; the kernel keeps no
 * table, but adds each mass's terms in place, from +0.0, in the order the
 * table gave them (vx_forces, the kernel's one force entry, which a step
 * asks for both kinds of term, and the strip's static solve for the springs'
 * alone):
 *  1. its spring_i ends, in spring order, each adding the spring's (fx, fy);
 *  2. its spring_j ends, in spring order, each adding (-fx, -fy);
 *  3. its ground contact's (ft, fn), a robot mass on any terrain;
 *  4. its strip terms: a robot mass's (ft, fn); a strip mass's reactions
 *     where it is a segment's left end, in robot-mass order, then those
 *     where it is the right end.
 * Another order rounds otherwise, so this order is part of the engine; the
 * golden digests guard it. The step then subtracts the Table's gravity times
 * each mass from its y sum, and integrates (integrate).
 *
 * The elementwise loops around those sums take no data-dependent branch:
 * the springs' forces (spring_pass), the ground contact (ground_pass), the
 * strip-segment search (strip_segments, a count of a chain's masses left of
 * x), integration with its per-world divergence flag (integrate) and the
 * finish test (reached, an OR over every mass). np.maximum and its kin are
 * selects, and the loops' only reductions are integer ORs and counts, so a
 * vector lane does the scalar code's operations and no floating-point sum is
 * reordered. These five, and the modular network's loops, are compiled for
 * AVX-512 and for the baseline and vectorised with no cost model
 * (VX_CLONES), as -O2's cheap model vectorises none of the five; the
 * baseline clone vectorises what SSE2 can. GCC vectorises a loop's indexed
 * loads only through restrict pointers that are the function's parameters,
 * so each loop takes the arrays it indexes or writes as such. The springs'
 * end-to-end differences (spring_ends) stay a scalar loop on every CPU: a
 * vector would gather them one element at a time. The build flags'
 * -fno-math-errno lets sqrt be one instruction, in a vector too; it moves no
 * bit, as all it drops is sqrt of a negative number setting errno.
 *
 * The modular network is the exception to numpy's numerics: it has numerics
 * of its own, the same on every CPU, set out above vx_presum.
 * tests/oracles.py keeps the numpy code as the reference all of these are
 * tested against, byte for byte.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* A function so marked is compiled for AVX-512 and for the baseline
 * (target_clones), with its loops vectorised and no cost model, and the
 * loader picks the clone the CPU runs, so a CPU with AVX2 but no AVX-512
 * runs the baseline. Defining VX_DEFAULT_CLONE_ONLY builds the baseline
 * clone alone, which is how the tests check that the clones agree. */
#ifdef VX_DEFAULT_CLONE_ONLY
#define VX_CLONES __attribute__((optimize("tree-vectorize", "vect-cost-model=unlimited")))
#else
#define VX_CLONES \
    __attribute__((target_clones("avx512f", "default"), optimize("tree-vectorize", "vect-cost-model=unlimited")))
#endif

enum { MASS, SPRING, VOX, ACT, TOP, KINDS };  /* the kinds of row, in starts' order */

/* A union of worlds: its sizes, the engine's constants, and pointers to every
 * table of the union, all in the one buffer that vx_build lays out and fills
 * (the builder, at the end of this file). Each fact has one table: a row's
 * world, for one, is read from starts. The step writes the state's first
 * group of tables and reads the next, which the builder derives from the
 * rows of the third. The scratch rows carry a call's work from one pass to
 * the next; of those, Python reads net, bad and features.
 * sim_core.WorldState says which tables Python reads. */
typedef struct {
    /* sizes */
    int64_t masses, springs, robots, worlds;
    int64_t chain;      /* top-chain masses per world; 0 when flat */
    int64_t edges;      /* actuated edge springs */
    int64_t diagonals;  /* voxels holding an actuated edge */
    int64_t terrain;    /* 0 none, 1 flat, 2 bridge */
    int64_t actuators;  /* active voxels */
    int64_t voxels;     /* non-empty robot voxels */
    int64_t steps_per_action;
    /* constants */
    double dt, gravity, stiffness, damping, mu, limit, span_start, span_end;
    double action_low, action_high;
    /* state, written */
    double *pos, *vel;  /* (masses, 2) */
    double *spring_current_rest, *spring_target_rest;  /* (springs,) */
    int64_t *clamped_actions;  /* (worlds,) */
    /* state, read */
    double *mass, *inv_mass;  /* (masses,) 1 / mass; zero for pinned masses */
    int64_t *spring_i, *spring_j;
    double *spring_k, *spring_c, *spring_rest;  /* spring_c: axial damping */
    int64_t *edge_ids;    /* the actuated edge springs, ascending */
    double *edge_limit;   /* their per-step rest-length change limit */
    int64_t *edge_slot;   /* (actuators, 2): each actuator's springs' rows in edge_ids */
    int64_t *edge_count;  /* actuators per actuated edge, 1 or 2 */
    int64_t *act_world;
    int64_t *vox_corners;     /* (voxels, 4) corner mass ids, (bl, br, tr, tl) */
    int64_t *diagonal_sides;  /* (2, 2, diagonals): (bottom, left), (top, right) */
    int64_t *diagonal_ids;    /* (2, diagonals) */
    int64_t *robot_ids, *robot_world;  /* (robots,) the robot masses, ascending, and their worlds */
    int64_t *bridge_top;      /* (worlds, chain) each world's top-chain masses, ordered by x */
    /* (KINDS, worlds + 1): world w's rows of a kind are starts[kind][w] up
     * to starts[kind][w + 1]; the step reads row MASS, the first */
    int64_t *starts;
    /* mass m's spring ends are the rows ends[end_starts[m]] up to
     * ends[end_starts[m + 1]] of spring_f, k for spring k's i end and
     * springs + k for its j end: its spring_i ends, then its spring_j ends,
     * each in spring order */
    int64_t *end_starts, *ends;
    /* rows that the step never reads; the control step reads act_window */
    uint8_t *pinned, *is_robot;  /* (masses,) */
    int64_t *vox_h_edges, *vox_v_edges, *vox_shear;  /* (voxels, 2) spring ids */
    int64_t *actuator_cells, *actuator_springs;  /* (actuators, 2): (row, column), actuated edge ids */
    int64_t *act_window, *act_codes;  /* (actuators, 9): each window slot's voxel row, or voxels; its code */
    double *com_weights;      /* (robots,) each robot mass's fraction of its robot's */
    /* scratch */
    double *spring_d;       /* (springs, 4) each spring's dx, dy, dvx, dvy: its j end's less its i end's */
    double *spring_f;       /* (2, springs, 2) each spring's (fx, fy) on its i end, then (-fx, -fy) on its j end */
    double *ground;         /* (robots, 2) each robot mass's ground contact (ft, fn) */
    double *chain_x;        /* (worlds, chain) the top chains' x */
    double *net;            /* (masses, 2) the summed forces */
    double *new_pos;        /* (masses, 2) */
    int64_t *bad;           /* (worlds,) whether a world's new positions diverged on vx_run's last step */
    int64_t *contact_ids;   /* (2, robots) a strip contact's mass and segment */
    double *contact_w;      /* (4, robots) its right end's weight, its depth, its ft and its fn */
    double *sums;           /* (edges,) */
    double *features;       /* (voxels + 1, 3) each voxel's volume, vx, vy for a control step; the last row stays zero */
} Table;

/* np.maximum and np.minimum: a NaN in either operand propagates, and of
 * two equal operands (-0.0 and 0.0 among them) the second is returned */
static inline double np_max(double a, double b) { return (a > b || a != a) ? a : b; }
static inline double np_min(double a, double b) { return (a < b || a != a) ? a : b; }

/* np.clip with scalar bounds, which keeps x when it equals a bound */
static inline double clip_scalar(double x, double lo, double hi) { return x < lo ? lo : (x > hi ? hi : x); }

/* np.clip with array bounds: numpy's maximum, then its minimum */
static inline double clip_array(double x, double lo, double hi) { return np_min(np_max(x, lo), hi); }

/* Move actuated edge rest lengths toward their targets, rate-limited; the
 * diagonals of the voxels holding them follow (Pythagoras). Nothing moves
 * once every edge sits on its target. */
static void advance_actuation(const Table *t)
{
    double *rest = t->spring_current_rest;
    int64_t e, k, moving = 0;
    for (e = 0; e < t->edges; e++) {
        int64_t s = t->edge_ids[e];
        moving |= (t->spring_target_rest[s] - rest[s]) != 0.0;  /* NaN counts as moving */
    }
    if (!moving)
        return;
    for (e = 0; e < t->edges; e++) {
        int64_t s = t->edge_ids[e];
        double delta = t->spring_target_rest[s] - rest[s];
        delta = np_min(delta, t->edge_limit[e]);
        delta = np_max(delta, -t->edge_limit[e]);
        rest[s] = rest[s] + delta;
    }
    const int64_t n = t->diagonals;
    const int64_t *sides = t->diagonal_sides;
    for (k = 0; k < n; k++) {
        double h = rest[sides[k]] + rest[sides[2 * n + k]];  /* bottom + top */
        double v = rest[sides[n + k]] + rest[sides[3 * n + k]];  /* left + right */
        h = h * 0.5;
        v = v * 0.5;
        double d = hypot(h, v);  /* one length per voxel, for both of its diagonals */
        rest[t->diagonal_ids[k]] = d;
        rest[t->diagonal_ids[n + k]] = d;
    }
}

/* Each spring's end-to-end position and velocity differences into
 * t->spring_d. Scalar on every CPU: a vector of them would gather its
 * operands one element at a time. */
static void spring_ends(const Table *t)
{
    const double *pos = t->pos, *vel = t->vel;
    double *d = t->spring_d;
    for (int64_t k = 0; k < t->springs; k++) {
        int64_t i = t->spring_i[k], j = t->spring_j[k];
        d[4 * k] = pos[2 * j] - pos[2 * i];
        d[4 * k + 1] = pos[2 * j + 1] - pos[2 * i + 1];
        d[4 * k + 2] = vel[2 * j] - vel[2 * i];
        d[4 * k + 3] = vel[2 * j + 1] - vel[2 * i + 1];
    }
}

/* The Hooke + axial damping force of every spring, from its differences
 * ``d`` (spring_ends), into its rows of t->spring_f: (fx, fy) on its i end,
 * and the exact reaction (-fx, -fy) on its j end. A row of four for both
 * ends would cost the vector loop more to store. */
VX_CLONES static void spring_pass(const Table *t, const double *restrict d, double *restrict f,
                                             double *restrict reaction)
{
    for (int64_t k = 0; k < t->springs; k++) {
        double dx = d[4 * k], dy = d[4 * k + 1], dvx = d[4 * k + 2], dvy = d[4 * k + 3];
        double dist = dx * dx;
        dist = dist + dy * dy;
        dist = np_max(sqrt(dist), 1e-12);
        double rel_speed = dvx * dx;
        rel_speed = rel_speed + dvy * dy;
        rel_speed = rel_speed / dist;
        double magnitude = t->spring_k[k] * (dist - t->spring_current_rest[k]);
        magnitude = magnitude + t->spring_c[k] * rel_speed;
        magnitude = magnitude / dist;
        double fx = dx * magnitude, fy = dy * magnitude;
        f[2 * k] = fx;
        f[2 * k + 1] = fy;
        reaction[2 * k] = -fx;
        reaction[2 * k + 1] = -fy;
    }
}

/* Each robot mass's ground contact (ft, fn) into its row of t->ground, on
 * the rigid surface at y=0 (the pads only, on a bridge). Normal:
 * k*depth - c*v_normal, clamped >= 0. Friction: the force that would cancel
 * the tangential velocity within one step, capped at mu * |normal|. */
VX_CLONES static void ground_pass(const Table *t, const double *restrict pos, const double *restrict vel,
                                             const double *restrict mass, double *restrict ground)
{
    const int64_t bridge = t->terrain == 2;
    for (int64_t q = 0; q < t->robots; q++) {
        int64_t m = t->robot_ids[q];
        double px = pos[2 * m], py = pos[2 * m + 1];
        double fn = py * -t->stiffness;
        fn = fn - t->damping * vel[2 * m + 1];
        fn = np_max(fn, 0.0);
        fn = fn * (py < 0.0 ? 1.0 : 0.0);
        /* 1.0 off a bridge's span, and always when flat: x * 1.0 is x, NaN included */
        fn = fn * ((px <= t->span_start) | (px >= t->span_end) | !bridge ? 1.0 : 0.0);
        double cap = t->mu * fn;
        double ft = mass[m] * vel[2 * m];
        ft = ft / -t->dt;
        ft = np_min(ft, cap);
        ft = np_max(ft, -cap);
        ground[2 * q] = ft;
        ground[2 * q + 1] = fn;
    }
}

/* The segment of its world's top chain under each of n robot masses, given
 * by their robot rows: the number of the chain's masses left of its x,
 * minus one, clipped to the chain, as a union index into bridge_top. */
VX_CLONES static void strip_segments(const Table *t, int64_t n, const int64_t *restrict rows,
                                                const double *restrict pos, double *restrict chain_x,
                                                int64_t *restrict segs)
{
    const int64_t chain = t->chain;
    int64_t c, k;
    for (c = 0; c < t->worlds * chain; c++)
        chain_x[c] = pos[2 * t->bridge_top[c]];
    for (k = 0; k < n; k++) {
        const int64_t world = t->robot_world[rows[k]];
        const double x = pos[2 * t->robot_ids[rows[k]]];
        const double *row = chain_x + world * chain;
        int64_t left = 0;
        for (c = 0; c < chain; c++)
            left += row[c] < x;
        int64_t seg = left - 1;
        seg = seg < 0 ? 0 : (seg > chain - 2 ? chain - 2 : seg);
        segs[k] = world * chain + seg;
    }
}

/* The robot masses over the span that sink into their own world's top
 * chain, in robot-mass order: each one's mass and segment into
 * contact_ids, and its right end's weight w, its depth, and its contact
 * (ft, fn) into contact_w. Returns their number. */
static int64_t strip_contacts(const Table *t)
{
    const double *pos = t->pos, *vel = t->vel;
    const int64_t r = t->robots;
    int64_t *ids = t->contact_ids, *segs = t->contact_ids + r;
    double *weights = t->contact_w, *depths = weights + r, *fts = depths + r, *fns = fts + r;
    int64_t q, k, n = 0;
    for (q = 0; q < r; q++) {
        double x = pos[2 * t->robot_ids[q]];
        ids[n] = q;
        n += (x > t->span_start) & (x < t->span_end);
    }
    if (!n)
        return 0;
    strip_segments(t, n, ids, pos, t->chain_x, segs);
    int64_t sunk = 0;
    for (k = 0; k < n; k++) {  /* ids[sunk] is written after ids[k] is read, and sunk <= k */
        int64_t m = t->robot_ids[ids[k]], seg = segs[k];
        int64_t left = t->bridge_top[seg], right = t->bridge_top[seg + 1];
        double left_x = pos[2 * left];
        double span = np_max(pos[2 * right] - left_x, 1e-9);
        double w = clip_scalar((pos[2 * m] - left_x) / span, 0.0, 1.0);
        double u = 1 - w;
        double depth = pos[2 * left + 1] * u + pos[2 * right + 1] * w;
        depth = depth - pos[2 * m + 1];
        ids[sunk] = m;
        segs[sunk] = seg;
        weights[sunk] = w;
        depths[sunk] = depth;
        sunk += depth > 0.0;
    }
    for (k = 0; k < sunk; k++) {
        int64_t m = ids[k];
        int64_t left = t->bridge_top[segs[k]], right = t->bridge_top[segs[k] + 1];
        double w = weights[k];
        double u = 1 - w;
        double rel_vy = vel[2 * m + 1] - (vel[2 * left + 1] * u + vel[2 * right + 1] * w);
        double rel_vx = vel[2 * m] - (vel[2 * left] * u + vel[2 * right] * w);
        double fn = np_max(t->stiffness * depths[k] - t->damping * rel_vy, 0.0);
        fts[k] = clip_array(-t->mass[m] * rel_vx / t->dt, -t->mu * fn, t->mu * fn);
        fns[k] = fn;
    }
    return sunk;
}

/* Each mass's force into t->net, summed in place from +0.0 in the order the
 * header sets out: if ``springs``, its spring ends' forces (spring_ends,
 * spring_pass, into t->spring_f); then, if ``contact`` and there is a
 * terrain, its ground contact (ground_pass, into t->ground) and on a bridge
 * the strip contacts' terms (strip_contacts): a robot mass's (ft, fn), and
 * -ft*u and -fn*u on its segment's left end, then -ft*w and -fn*w on its
 * right end, where w is the right end's weight and u = 1 - w the left's.
 * Each kind of contact term is added in its own pass, in robot-mass order,
 * so every mass adds its terms in the header's order. */
void vx_forces(const Table *t, int64_t springs, int64_t contact)
{
    const int64_t r = t->robots;
    const int64_t *ids = t->contact_ids, *segs = ids + r;
    const double *weights = t->contact_w, *fts = weights + 2 * r, *fns = fts + r;
    double *net = t->net;
    int64_t m, e, q, k, sunk = 0;
    contact = contact && t->terrain;
    if (springs) {
        spring_ends(t);
        spring_pass(t, t->spring_d, t->spring_f, t->spring_f + 2 * t->springs);
    }
    if (contact) {
        ground_pass(t, t->pos, t->vel, t->mass, t->ground);
        if (t->terrain == 2)
            sunk = strip_contacts(t);
    }
    for (m = 0; m < t->masses; m++) {
        double fx = 0.0, fy = 0.0;
        if (springs)
            for (e = t->end_starts[m]; e < t->end_starts[m + 1]; e++) {
                const double *f = t->spring_f + 2 * t->ends[e];
                fx = fx + f[0];
                fy = fy + f[1];
            }
        net[2 * m] = fx;
        net[2 * m + 1] = fy;
    }
    if (contact)
        for (q = 0; q < r; q++) {
            net[2 * t->robot_ids[q]] += t->ground[2 * q];
            net[2 * t->robot_ids[q] + 1] += t->ground[2 * q + 1];
        }
    for (k = 0; k < sunk; k++) {
        net[2 * ids[k]] += fts[k];
        net[2 * ids[k] + 1] += fns[k];
    }
    for (k = 0; k < sunk; k++) {
        const int64_t left = t->bridge_top[segs[k]];
        const double u = 1 - weights[k];
        net[2 * left] += -fts[k] * u;
        net[2 * left + 1] += -fns[k] * u;
    }
    for (k = 0; k < sunk; k++) {
        const int64_t right = t->bridge_top[segs[k] + 1];
        net[2 * right] += -fts[k] * weights[k];
        net[2 * right + 1] += -fns[k] * weights[k];
    }
}

/* Velocities, then new positions, of every mass from t->net and t->gravity,
 * into t->vel and t->new_pos; t->bad[w] is set when world w has a new
 * position that is non-finite or beyond the limit, and cleared otherwise. */
VX_CLONES static void integrate(const Table *t, const double *restrict pos, const double *restrict net,
                                           double *restrict vel, double *restrict new_pos)
{
    const double dt = t->dt, gravity = t->gravity, limit = t->limit;
    const double *mass = t->mass, *inv_mass = t->inv_mass;
    for (int64_t w = 0; w < t->worlds; w++) {
        int64_t bad = 0;
        for (int64_t m = t->starts[w]; m < t->starts[w + 1]; m++) {  /* row MASS */
            double fx = net[2 * m], fy = net[2 * m + 1] - gravity * mass[m];
            fx = fx * inv_mass[m] * dt;
            fy = fy * inv_mass[m] * dt;
            double vx = vel[2 * m] + fx, vy = vel[2 * m + 1] + fy;
            vel[2 * m] = vx;
            vel[2 * m + 1] = vy;
            double x = vx * dt + pos[2 * m];
            double y = vy * dt + pos[2 * m + 1];
            new_pos[2 * m] = x;
            new_pos[2 * m + 1] = y;
            bad |= !(fabs(x) <= limit) | !(fabs(y) <= limit);  /* true for NaN too */
        }
        t->bad[w] = bad;
    }
}

/* Whether some mass has !(x < reach), NaN included. */
VX_CLONES static int64_t reached(int64_t masses, const double *pos, double reach)
{
    int64_t any = 0;
    for (int64_t m = 0; m < masses; m++)
        any |= !(pos[2 * m] < reach);
    return any;
}

/* One semi-implicit Euler step of every world. Flags in t->bad the worlds
 * whose new position is non-finite or beyond the limit and returns whether
 * there is one; those worlds keep their positions, every other world commits
 * its step. */
static int64_t one_step(const Table *t)
{
    int64_t w, diverged = 0;
    advance_actuation(t);
    vx_forces(t, 1, 1);
    integrate(t, t->pos, t->net, t->vel, t->new_pos);
    for (w = 0; w < t->worlds; w++) {
        const int64_t start = t->starts[w], stop = t->starts[w + 1];  /* row MASS */
        diverged |= t->bad[w];
        if (!t->bad[w])
            memcpy(t->pos + 2 * start, t->new_pos + 2 * start, 2 * (stop - start) * sizeof(double));
    }
    return diverged;
}

/* Set the actuated edges' targets from one command per active voxel: each
 * command clamped into [action_low, action_high] (a NaN stays NaN, and
 * counts as clamped), counted per world when clamping changed it; an edge
 * takes its build-time rest length times the mean of its actuators'
 * clamped commands. Each clamped command is added to both of its edges'
 * sums as it is made, so every sum adds its terms in edge_slot order from
 * +0.0, as np.bincount does. */
void vx_set_targets(const Table *t, const double *commands)
{
    double *sums = t->sums;
    int64_t q, e;
    for (e = 0; e < t->edges; e++)
        sums[e] = 0.0;
    for (q = 0; q < t->actuators; q++) {
        double c = np_min(np_max(commands[q], t->action_low), t->action_high);
        t->clamped_actions[t->act_world[q]] += !(c == commands[q]);
        sums[t->edge_slot[2 * q]] += c;
        sums[t->edge_slot[2 * q + 1]] += c;
    }
    for (e = 0; e < t->edges; e++) {
        int64_t s = t->edge_ids[e];
        t->spring_target_rest[s] = t->spring_rest[s] * sums[e] / (double)t->edge_count[e];
    }
}

/* ---- the controllers ------------------------------------------------------
 *
 * A control step computes one command per active voxel. The fixed
 * controller alternates action_high and action_low. The modular one runs
 * one shared network on each active voxel's 73-entry observation: its 3x3
 * window's 9 slots of (volume, vx, vy, 5-way material indicator), row-major,
 * then the control step's parity. Only the first three entries of a slot
 * and the parity change during an episode, so the material part of every
 * hidden sum is added once per batch (vx_presum) and each control step adds
 * the 28 others (vx_mlp). control.py splits W1's columns into the two parts,
 * in the order they are summed.
 *
 * The network's numerics are this file's own, so that every CPU gives the
 * same bits; no BLAS, libm or numpy transcendental is used:
 *  - hidden unit j of a row sums, one IEEE operation at a time, b1[j], then
 *    W1[j][c] * obs[c] over the 45 material entries in column order, then
 *    over the 27 dynamic entries in (slot, feature) order, then the parity;
 *  - tanh and the logistic use net_exp, built from +, -, *, / and exponent
 *    bits; tanh takes an odd Taylor polynomial for |x| < TANH_NEAR;
 *  - z sums w2[j] * tanh(h_j) in 8 accumulators, accumulator l over
 *    j = l, l + 8, l + 16, l + 24 in that order, then the 8 in order, then
 *    adds b2; the command is action_low + 1 / (1 + exp(-z)), z clipped to
 *    [-60, 60] first, which moves no command (0.6 + logistic(+-60) is 1.6
 *    and 0.6 exactly).
 * tests/oracles.py's reference_network does the same operations in numpy.
 *
 * These are plain loops and scalar functions, cloned and vectorised as the
 * step's loops are (VX_CLONES): across units or across rows, never across
 * a sum, so a vector lane does one unit's or one row's scalar operations
 * and every clone gives the same bits. Their selects (np_min,
 * clip_scalar and a plain <) are false for NaN and keep it. GCC vectorises
 * the tanh and logistic loops only with AVX-512's masked operations: the
 * baseline clone runs them one value at a time.
 */

#define UNITS 32      /* hidden units */
#define MATERIAL 45   /* material entries: 9 slots x 5 indicators */
#define DYNAMIC 27    /* dynamic entries: 9 slots x (volume, vx, vy) */
#define INPUTS (DYNAMIC + 1)  /* a control step's inputs: the dynamic entries, then the parity */
#define WINDOW 9      /* an active voxel's window slots */
#define LANES 8       /* the output sum's accumulators */

/* e^x = 2^k e^r, k = round(x log2 e) by adding and subtracting SHIFTER,
 * r = x - k ln2 with ln2 in two parts (k * LN2_HI is exact) */
static const double LOG2E = 1.4426950408889634;
static const double SHIFTER = 6755399441055744.0;  /* 1.5 * 2^52 */
static const double LN2_HI = 0x1.62e42feep-1;
static const double LN2_LO = 0x1.a39ef35793c76p-33;
/* 1/n! for n = 13 down to 0: e^r's Taylor polynomial, |r| <= ln2 / 2 */
static const double EXP_TAYLOR[14] = {
    1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0, 1.0 / 3628800.0, 1.0 / 362880.0,
    1.0 / 40320.0, 1.0 / 5040.0, 1.0 / 720.0, 1.0 / 120.0, 1.0 / 24.0, 1.0 / 6.0, 1.0 / 2.0, 1.0, 1.0,
};
/* tanh(x) = x + x s q(s), s = x^2, for |x| < TANH_NEAR: q's coefficients,
 * from the s^6 term down; beyond, tanh|x| = 1 - 2 / (e^2|x| + 1) */
static const double TANH_NEAR = 0.15;
static const double TANH_TAYLOR[7] = {
    -929569.0 / 638512875.0, 21844.0 / 6081075.0, -1382.0 / 155925.0, 62.0 / 2835.0,
    -17.0 / 315.0, 2.0 / 15.0, -1.0 / 3.0,
};

/* a double's bit pattern, and the double of a bit pattern */
static inline uint64_t bits_of(double x) { uint64_t b; memcpy(&b, &x, sizeof b); return b; }
static inline double of_bits(uint64_t b) { double x; memcpy(&x, &b, sizeof x); return x; }

/* e^x, for |x| <= 700: within 1 ulp on [-60, 60]; NaN stays NaN */
static inline double net_exp(double x)
{
    double t = x * LOG2E + SHIFTER;
    double k = t - SHIFTER;
    double r = x - k * LN2_HI;
    r = r - k * LN2_LO;
    double p = EXP_TAYLOR[0];
#pragma GCC unroll 16
    for (int n = 1; n < 14; n++)
        p = p * r + EXP_TAYLOR[n];
    return p * of_bits((bits_of(t) - bits_of(SHIFTER) + 1023) << 52);  /* 2^k, k + 1023 from t's bits */
}

/* tanh: within 1.7e-16 absolute and 6 ulp on [-30, 30]; the sign of x is
 * put back last, so tanh(-0.0) is -0.0; NaN stays NaN */
static inline double net_tanh(double x)
{
    double a = fabs(x);  /* x with its sign bit cleared, a NaN's too */
    double twice = np_min(a, 20.0);  /* tanh 20 rounds to 1, as tanh of all beyond */
    twice = twice + twice;
    double far = 1.0 - 2.0 / (net_exp(twice) + 1.0);
    double s = a * a;
    double q = TANH_TAYLOR[0];
#pragma GCC unroll 8
    for (int n = 1; n < 7; n++)
        q = q * s + TANH_TAYLOR[n];
    double near = a + a * s * q;
    return of_bits(bits_of(a < TANH_NEAR ? near : far) | (bits_of(x) & (UINT64_C(1) << 63)));
}

/* 1 / (1 + e^-z), z clipped to [-60, 60] first */
static inline double logistic(double z)
{
    z = clip_scalar(z, -60.0, 60.0);
    return 1.0 / (1.0 + net_exp(-z));
}

/* A state's controllers, one per world: control.controller_table builds it,
 * the state keeps it. A modular control step reads its observations through
 * the Table's act_window, from the Table's features. */
typedef struct {
    int64_t fixed;           /* the fixed alternation, else the modular network */
    int64_t rows;            /* commands per control step, one per active voxel */
    const int64_t *world;    /* (rows,) each row's world, the row of its parameters */
    const double *w_material;  /* (worlds, 45, 32) W1's material columns, transposed: an entry's 32 unit weights in a row */
    const double *w_inputs;    /* (worlds, 28, 32) its dynamic columns, then its parity column, likewise */
    const double *b1, *w2;   /* (worlds, 32) */
    const double *b2;        /* (worlds,) */
    double *pre;             /* (rows, 32) b1 plus each row's material sum */
    double *inputs;          /* (rows, 28) the control step's dynamic entries and parity */
    double *hidden;          /* (rows, 32) the hidden units */
    double *actions;         /* (rows,) the commands; vx_mlp leaves the logistics, to which vx_act adds action_low */
} Brain;

/* Write every voxel's shoelace area and mean corner velocity into its row of
 * t->features. The corner sums add left to right from +0.0, as numpy's sum
 * over the rows of a (voxels, 4) array does. */
void vx_fill_features(const Table *t)
{
    const double *pos = t->pos, *vel = t->vel;
    double *features = t->features;
    int64_t v, k;
    for (v = 0; v < t->voxels; v++) {
        const int64_t *c = t->vox_corners + 4 * v;
        double area = 0.0, vx = 0.0, vy = 0.0;
        for (k = 0; k < 4; k++) {
            int64_t a = c[k], b = c[(k + 1) % 4];
            double p = pos[2 * a] * pos[2 * b + 1];
            p = p - pos[2 * b] * pos[2 * a + 1];
            area = area + p;
            vx = vx + vel[2 * a];
            vy = vy + vel[2 * a + 1];
        }
        features[3 * v] = 0.5 * fabs(area);
        features[3 * v + 1] = vx / 4;
        features[3 * v + 2] = vy / 4;
    }
}

/* Each row's b1 plus its material sum into b->pre, from ``material``:
 * (rows, 45), the rows' material entries in w_material's order. */
VX_CLONES void vx_presum(const Brain *b, const double *material)
{
    int64_t r, c, u;
    for (r = 0; r < b->rows; r++) {
        const int64_t world = b->world[r];
        const double *weights = b->w_material + world * MATERIAL * UNITS;
        const double *x = material + r * MATERIAL;
        double h[UNITS];
        for (u = 0; u < UNITS; u++)
            h[u] = b->b1[world * UNITS + u];
        /* the unit loop inside, unrolled: AVX-512 keeps the 32 sums in 4
         * registers, 4 independent chains across the inputs; rolled, the
         * sums go through the stack at every input, and vx_mlp took about
         * a third longer */
        for (c = 0; c < MATERIAL; c++)
#pragma GCC unroll 4
            for (u = 0; u < UNITS; u++)
                h[u] = h[u] + weights[c * UNITS + u] * x[c];
        for (u = 0; u < UNITS; u++)
            b->pre[r * UNITS + u] = h[u];
    }
}

/* The network's logistic 1 / (1 + exp(-z)) for every row into b->actions,
 * from b->pre and b->inputs, in passes over all rows, each row independent
 * of the others within a pass: the hidden sums, their tanh, the output
 * sums, the logistic. Adding action_low makes it the command. */
VX_CLONES void vx_mlp(const Brain *b)
{
    int64_t r, k, u, l;
    for (r = 0; r < b->rows; r++) {
        const double *weights = b->w_inputs + b->world[r] * INPUTS * UNITS;
        const double *x = b->inputs + r * INPUTS;
        double h[UNITS];
        for (u = 0; u < UNITS; u++)
            h[u] = b->pre[r * UNITS + u];
        for (k = 0; k < INPUTS; k++)
#pragma GCC unroll 4
            for (u = 0; u < UNITS; u++)
                h[u] = h[u] + weights[k * UNITS + u] * x[k];
        for (u = 0; u < UNITS; u++)
            b->hidden[r * UNITS + u] = h[u];
    }
    for (k = 0; k < b->rows * UNITS; k++)
        b->hidden[k] = net_tanh(b->hidden[k]);
    for (r = 0; r < b->rows; r++) {
        const int64_t world = b->world[r];
        const double *w2 = b->w2 + world * UNITS, *t = b->hidden + r * UNITS;
        double acc[LANES];
        for (l = 0; l < LANES; l++)
            acc[l] = t[l] * w2[l];
        for (u = LANES; u < UNITS; u += LANES)
            for (l = 0; l < LANES; l++)
                acc[l] = acc[l] + t[u + l] * w2[u + l];
        double z = acc[0];
        for (l = 1; l < LANES; l++)
            z = z + acc[l];
        b->actions[r] = z + b->b2[world];
    }
    for (r = 0; r < b->rows; r++)
        b->actions[r] = logistic(b->actions[r]);
}

/* One control step's commands into b->actions: the fixed alternation, or
 * the network on the current observations, each row's window read through
 * t->act_window, ``parity`` being the control step's. */
void vx_act(const Table *t, const Brain *b, int64_t parity)
{
    int64_t r, s, k;
    if (b->fixed) {
        for (r = 0; r < b->rows; r++)
            b->actions[r] = parity ? t->action_low : t->action_high;
        return;
    }
    vx_fill_features(t);
    for (r = 0; r < b->rows; r++) {
        double *x = b->inputs + r * INPUTS;
        for (s = 0; s < WINDOW; s++)
            for (k = 0; k < 3; k++)
                x[3 * s + k] = t->features[3 * t->act_window[r * WINDOW + s] + k];
        x[DYNAMIC] = (double)parity;
    }
    vx_mlp(b);
    for (r = 0; r < b->rows; r++)
        b->actions[r] = t->action_low + b->actions[r];
}

/* Step from time ``time`` until the first of: a step on which a world
 * diverged; a step after which some mass has !(x < finish_reach), NaN
 * included; and time ``stop``. With a controller table ``b``, every control
 * step k first sets the targets to b's commands (vx_act, with k's parity);
 * without one, the targets stay as the caller set them. t->bad flags the
 * worlds that diverged on the last step taken, and none when no step is
 * taken. Returns the number of steps taken. */
int64_t vx_run(const Table *t, const Brain *b, int64_t time, int64_t stop, double finish_reach)
{
    int64_t taken = 0;
    memset(t->bad, 0, t->worlds * sizeof *t->bad);
    while (time < stop) {
        if (b && time % t->steps_per_action == 0) {
            vx_act(t, b, (time / t->steps_per_action) % 2);
            vx_set_targets(t, b->actions);
        }
        const int64_t diverged = one_step(t);
        time++;
        taken++;
        if (diverged || reached(t->masses, t->pos, finish_reach))
            break;
    }
    return taken;
}

/* ---- settling the bridge strip ---------------------------------------------
 *
 * vx_settle solves the statics of a strip under gravity (sim_core's
 * _settled_strip): Newton's method on the n coordinates of t->pos that
 * ``unknowns`` names, the free masses', each index into pos's flat
 * (masses, 2) order. It does what the numpy solve in tests/oracles.py does,
 * one operation at a time and in its order, so the settled strip keeps its
 * bits:
 *  - the residual: vx_forces with the springs alone, then each mass's y sum
 *    less gravity * mass, then each coordinate's sum times its inv_mass,
 *    read at the unknowns (strip_residual);
 *  - a Newton step opens with the residual, and stops the solve when every
 *    entry's magnitude is below ``tol``, a NaN never so; no step ends with
 *    that test;
 *  - the Jacobian, column k: the residual with unknown k moved ahead by
 *    ``h``, less the residual with it moved behind by ``h``, the coordinate
 *    restored after; then every entry divided by 2.0 * h;
 *  - the step: Gaussian elimination of [Jacobian | residual] without
 *    pivoting, pivot row k taking from each row i below it f times row k
 *    from column k on, f = m[i][k] / m[k][k] taken before row i changes, each
 *    entry m[i][j] - f * m[k][j] with two roundings (eliminate_row); then
 *    back-substitution, x[k] the right-hand side over the pivot and each row
 *    above it less m[i][k] * x[k]; then each unknown less its x[k].
 * The Jacobian is minus the mass-scaled tangent stiffness of a stable
 * structure, so no pivot is zero. It calls no BLAS, so the bits depend on no
 * CPU kernel. ``work`` holds n * (n + 4) doubles; the kernel allocates
 * nothing. Returns the Newton steps taken to settle, or -1 if ``iterations``
 * steps did not settle the strip, which is then left where the last one put
 * it. */

/* The residual at the strip's current positions into r (vx_settle). */
static void strip_residual(const Table *t, const int64_t *unknowns, int64_t n, double *r)
{
    vx_forces(t, 1, 0);
    for (int64_t k = 0; k < n; k++) {
        const int64_t u = unknowns[k], m = u / 2;
        double f = t->net[u];
        if (u % 2)
            f = f - t->gravity * t->mass[m];
        r[k] = f * t->inv_mass[m];
    }
}

/* row[j] - f * pivot[j] into row[j], for j < n: one row's update in the
 * elimination (vx_settle). */
VX_CLONES static void eliminate_row(int64_t n, double f, const double *restrict pivot, double *restrict row)
{
    for (int64_t j = 0; j < n; j++) {
        const double term = f * pivot[j];
        row[j] = row[j] - term;
    }
}

int64_t vx_settle(const Table *t, const int64_t *unknowns, int64_t n, double tol, double h, int64_t iterations, double *work)
{
    const int64_t cols = n + 1;  /* the Jacobian's columns, then the residual */
    double *m = work, *r = m + n * cols, *ahead = r + n, *x = ahead + n;
    double *pos = t->pos;
    int64_t step, i, j, k;
    for (step = 0; step < iterations; step++) {
        int64_t settled = 1;
        strip_residual(t, unknowns, n, r);
        for (k = 0; k < n; k++)
            settled &= fabs(r[k]) < tol;
        if (settled)
            return step;
        for (k = 0; k < n; k++) {
            const double held = pos[unknowns[k]];
            pos[unknowns[k]] = held + h;
            strip_residual(t, unknowns, n, ahead);
            pos[unknowns[k]] = held - h;
            strip_residual(t, unknowns, n, x);  /* behind: x is not the step's until the Jacobian is whole */
            for (i = 0; i < n; i++)
                m[i * cols + k] = ahead[i] - x[i];
            pos[unknowns[k]] = held;
        }
        const double width = 2.0 * h;
        for (i = 0; i < n; i++) {
            for (j = 0; j < n; j++)
                m[i * cols + j] = m[i * cols + j] / width;
            m[i * cols + n] = r[i];
        }
        for (k = 0; k < n - 1; k++)
            for (i = k + 1; i < n; i++)
                eliminate_row(cols - k, m[i * cols + k] / m[k * cols + k], m + k * cols + k, m + i * cols + k);
        for (k = n - 1; k >= 0; k--) {
            x[k] = m[k * cols + n] / m[k * cols + k];
            for (i = 0; i < k; i++)
                m[i * cols + n] = m[i * cols + n] - m[i * cols + k] * x[k];
        }
        for (k = 0; k < n; k++)
            pos[unknowns[k]] = pos[unknowns[k]] - x[k];
    }
    return -1;
}

/* ---- building worlds -------------------------------------------------------
 *
 * vx_count and vx_build make a batch's disjoint union of worlds
 * (sim_core.build_worlds), every table of it in one buffer: vx_count writes
 * the union's sizes into its Table and returns the bytes its tables take, and
 * vx_build lays the tables out in a zeroed buffer of that size, points the
 * Table at them and fills them. World w holds the rows of body grid[w], then,
 * if there is one, the part every world appends (the settled bridge strip);
 * every index is a union id.
 *
 * A body's non-empty cells are visited row-major. Each touches its corners
 * in (tl, tr, bl, br) order and its springs in the order bottom, top, left
 * and right edge, then the diagonals (bl, tr) and (br, tl); corners and
 * springs are numbered in order of first use. Grid corner (pi, pj) sits at
 * (x0 + pj, y0 - pi), which puts the body's leftmost corner at x = left and
 * its lowest at y = ground. A corner weighs corner_mass per voxel holding
 * it. An edge shared by two voxels is stored once, as (lower id, higher id),
 * with the stiffer voxel's constant; a diagonal is never shared and takes
 * shear times its voxel's. Rest lengths are libm's hypot of the end-to-end
 * vector, as np.hypot computes them. A body's masses are its robot's and
 * none is pinned; the part's are no robot's, and it brings its own pins and
 * top chain. The bridge strip that sim_core._settled_strip relaxes is built
 * alone as an ordinary one-row body, whose pins and top chain Python picks
 * out by position. As an active voxel's row is written, its 3x3 window is
 * read off its body's grid, row-major: each slot's voxel row, or voxels (the
 * zero row of features) for an empty or out-of-grid slot (act_window), and
 * each slot's material code, 0 off the grid (act_codes).
 *
 * vx_build then derives the union's other tables from those rows, each as
 * numpy derived it:
 *  - inv_mass, 1 / mass or zero for a pinned mass; both rest columns, the
 *    build-time rest lengths; spring_c, damping_ratio * 2 times
 *    sqrt(k * (0.5 * (m_i + m_j))); each active voxel's world;
 *  - the robot masses, ascending, walking each world's mass rows, with
 *    their worlds, and each one's com_weight, its mass over its robot's,
 *    which is summed in robot-mass order from +0.0;
 *  - the actuated edges, ascending as np.unique gives them, with each
 *    actuator's slots among them, each edge's number of actuators and its
 *    limit, actuation_rate * rest; and the voxels holding an actuated edge,
 *    in voxel order, for the diagonals that follow them;
 *  - each mass's list of spring ends: a counting sort of the rows of
 *    spring_f by their masses, which keeps each mass's rows in row order,
 *    as the stable np.argsort did.
 * tests/oracles.py's reference_build_worlds is the numpy builder and
 * reference_tables the numpy derivation that every table is tested against,
 * byte for byte, the windows and the zeroed scratch rows included.
 *
 * Each table starts on a 64-byte boundary of the buffer and is followed by a
 * gap of at least GAP bytes that no table uses. Built with AddressSanitizer,
 * vx_build poisons the gaps, so that an access past a table's end is caught,
 * as it would be past an allocation of its own.
 */

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

#define GAP 64

typedef struct {
    /* sizes */
    int64_t h, w;           /* every body's grid, h x w (smaller bodies padded with empty cells) */
    int64_t worlds;
    int64_t part_masses, part_springs, part_top;  /* the appended part's rows; 0 when there is none */
    /* constants */
    int64_t actuator_h, actuator_v;  /* the actuator materials' codes, horizontal and vertical */
    double left, ground;    /* each body's leftmost corner x and lowest corner y */
    double shear;           /* a diagonal's stiffness over its voxel's edge stiffness */
    double corner_mass;     /* a corner's mass per voxel holding it */
    double damping_ratio;   /* a spring's damping as a fraction of critical */
    double actuation_rate;  /* an actuated edge's rest-length change per step, as a fraction of its build-time one */
    /* read */
    const int8_t *cells;       /* (bodies, h, w) material codes */
    const int64_t *grid;       /* (worlds,) each world's body */
    const double *stiffness;   /* edge stiffness by material code */
    const double *part_pos, *part_mass;  /* the part's tables, its ids its own */
    const uint8_t *part_pinned;
    const int64_t *part_spring_i, *part_spring_j;
    const double *part_spring_k, *part_spring_rest;
    const int64_t *part_bridge_top;
} Builder;

/* The spring from corner i to corner j (ids among the body's), of
 * stiffness k, numbered on first use: in *slot when an edge, whose ends are
 * then sorted and which keeps the stiffer k of its voxels', or always new
 * when a diagonal (slot NULL). Returns its id among the body's. */
static int64_t spring(const Table *t, const int64_t *at, int64_t *count, int64_t *slot, int64_t i, int64_t j, double k)
{
    if (slot && *slot >= 0) {
        if (at)
            t->spring_k[at[SPRING] + *slot] = np_max(t->spring_k[at[SPRING] + *slot], k);
        return *slot;
    }
    const int64_t s = count[SPRING]++;
    if (slot) {
        *slot = s;
        if (i > j) {
            int64_t swap = i;
            i = j;
            j = swap;
        }
    }
    if (at) {
        const double *pi = t->pos + 2 * (at[MASS] + i), *pj = t->pos + 2 * (at[MASS] + j);
        t->spring_i[at[SPRING] + s] = at[MASS] + i;
        t->spring_j[at[SPRING] + s] = at[MASS] + j;
        t->spring_k[at[SPRING] + s] = k;
        t->spring_rest[at[SPRING] + s] = hypot(pi[0] - pj[0], pi[1] - pj[1]);
    }
    return s;
}

/* Number body g's rows and count them into count[KINDS]; with row offsets
 * ``at``, also write them into t's tables there. */
static void body_rows(const Builder *b, const Table *t, int64_t g, const int64_t *at, int64_t *count)
{
    const int64_t h = b->h, w = b->w, stride = w + 1, grid = (h + 1) * stride;
    const int8_t *cells = b->cells + g * h * w;
    int64_t ids[3 * grid];  /* by grid corner, horizontal and vertical edge */
    int64_t *corner = ids, *h_edge = corner + grid, *v_edge = h_edge + grid;
    int64_t voxel[h * w];  /* by cell: its voxel's number in the body, for a non-empty one */
    int64_t r, c, k, low = w, bottom = 0, numbered = 0;
    for (k = 0; k < 3 * grid; k++)
        ids[k] = -1;
    for (k = 0; k < KINDS; k++)
        count[k] = 0;
    for (r = 0; r < h; r++)
        for (c = 0; c < w; c++)
            if (cells[r * w + c]) {
                voxel[r * w + c] = numbered++;
                low = c < low ? c : low;
                bottom = r;
            }
    const double x0 = b->left - (double)low, y0 = b->ground + (double)(bottom + 1);
    for (r = 0; r < h; r++)
        for (c = 0; c < w; c++) {
            const int8_t code = cells[r * w + c];
            if (!code)
                continue;
            int64_t id[4];  /* tl, tr, bl, br */
            for (k = 0; k < 4; k++) {
                const int64_t pi = r + k / 2, pj = c + k % 2;
                int64_t *slot = corner + pi * stride + pj;
                if (*slot < 0) {
                    *slot = count[MASS]++;
                    if (at) {
                        t->pos[2 * (at[MASS] + *slot)] = x0 + (double)pj;
                        t->pos[2 * (at[MASS] + *slot) + 1] = y0 - (double)pi;
                    }
                }
                id[k] = *slot;
                if (at)
                    t->mass[at[MASS] + id[k]] += 1.0;  /* voxels holding it, exact */
            }
            const double edge = b->stiffness[code], diagonal = edge * b->shear;
            const int64_t bottom_edge = spring(t, at, count, h_edge + (r + 1) * stride + c, id[2], id[3], edge);
            const int64_t top_edge = spring(t, at, count, h_edge + r * stride + c, id[0], id[1], edge);
            const int64_t left_edge = spring(t, at, count, v_edge + r * stride + c, id[2], id[0], edge);
            const int64_t right_edge = spring(t, at, count, v_edge + r * stride + c + 1, id[3], id[1], edge);
            const int64_t rising = spring(t, at, count, NULL, id[2], id[1], diagonal);
            const int64_t falling = spring(t, at, count, NULL, id[3], id[0], diagonal);
            const int active = code == b->actuator_h || code == b->actuator_v;
            if (at) {
                const int64_t v = at[VOX] + count[VOX], s = at[SPRING], m = at[MASS];
                t->vox_corners[4 * v] = m + id[2];  /* bl, br, tr, tl */
                t->vox_corners[4 * v + 1] = m + id[3];
                t->vox_corners[4 * v + 2] = m + id[1];
                t->vox_corners[4 * v + 3] = m + id[0];
                t->vox_h_edges[2 * v] = s + bottom_edge;
                t->vox_h_edges[2 * v + 1] = s + top_edge;
                t->vox_v_edges[2 * v] = s + left_edge;
                t->vox_v_edges[2 * v + 1] = s + right_edge;
                t->vox_shear[2 * v] = s + rising;
                t->vox_shear[2 * v + 1] = s + falling;
                if (active) {
                    const int64_t a = at[ACT] + count[ACT];
                    const int horizontal = code == b->actuator_h;
                    t->actuator_cells[2 * a] = r;
                    t->actuator_cells[2 * a + 1] = c;
                    t->actuator_springs[2 * a] = s + (horizontal ? bottom_edge : left_edge);
                    t->actuator_springs[2 * a + 1] = s + (horizontal ? top_edge : right_edge);
                    for (k = 0; k < WINDOW; k++) {
                        const int64_t rr = r + k / 3 - 1, cc = c + k % 3 - 1;
                        const int8_t near = rr >= 0 && rr < h && cc >= 0 && cc < w ? cells[rr * w + cc] : 0;
                        t->act_window[WINDOW * a + k] = near ? at[VOX] + voxel[rr * w + cc] : t->voxels;
                        t->act_codes[WINDOW * a + k] = near;
                    }
                }
            }
            count[VOX]++;
            count[ACT] += active;
        }
    if (at)
        for (k = at[MASS]; k < at[MASS] + count[MASS]; k++) {
            t->mass[k] = t->mass[k] * b->corner_mass;
            t->is_robot[k] = 1;
        }
}

/* The place of a table of ``bytes`` bytes at offset *at of the buffer at
 * ``base``, or NULL while the buffer is only measured (base NULL); *at moves
 * past the table and its gap, to the next 64-byte boundary. */
static void *place(char *base, int64_t *at, int64_t bytes)
{
    const int64_t start = *at, end = start + bytes;
    *at = (end + GAP + 63) / 64 * 64;
#ifdef __SANITIZE_ADDRESS__
    if (base)
        __asan_poison_memory_region(base + end, (size_t)(*at - end));
#endif
    return base ? base + start : NULL;
}

#define PLACE(table, entries) (t->table = place(base, &at, (entries) * (int64_t)sizeof *t->table))

/* Lay out every table of t's union in the buffer at ``base``, pointing t at
 * them, and after them the builder's work rows (into *work); or, with base
 * NULL, only measure them. Returns their bytes. The edge tables take room for
 * two edges per actuator and the diagonal tables for every voxel, bounds of
 * their numbers. */
static int64_t lay_out(Table *t, char *base, int64_t **work)
{
    const int64_t n = t->masses, s = t->springs, r = t->robots, w = t->worlds, v = t->voxels, a = t->actuators;
    const int64_t edges = 2 * a, tops = w * t->chain;
    int64_t at = 0;
    PLACE(pos, 2 * n);
    PLACE(vel, 2 * n);
    PLACE(spring_current_rest, s);
    PLACE(spring_target_rest, s);
    PLACE(clamped_actions, w);
    PLACE(mass, n);
    PLACE(inv_mass, n);
    PLACE(spring_i, s);
    PLACE(spring_j, s);
    PLACE(spring_k, s);
    PLACE(spring_c, s);
    PLACE(spring_rest, s);
    PLACE(edge_ids, edges);
    PLACE(edge_limit, edges);
    PLACE(edge_slot, 2 * a);
    PLACE(edge_count, edges);
    PLACE(act_world, a);
    PLACE(vox_corners, 4 * v);
    PLACE(diagonal_sides, 4 * v);
    PLACE(diagonal_ids, 2 * v);
    PLACE(robot_ids, r);
    PLACE(robot_world, r);
    PLACE(bridge_top, tops);
    PLACE(starts, KINDS * (w + 1));
    PLACE(end_starts, n + 1);
    PLACE(ends, 2 * s);
    PLACE(pinned, n);
    PLACE(is_robot, n);
    PLACE(vox_h_edges, 2 * v);
    PLACE(vox_v_edges, 2 * v);
    PLACE(vox_shear, 2 * v);
    PLACE(actuator_cells, 2 * a);
    PLACE(actuator_springs, 2 * a);
    PLACE(act_window, WINDOW * a);
    PLACE(act_codes, WINDOW * a);
    PLACE(com_weights, r);
    PLACE(spring_d, 4 * s);
    PLACE(spring_f, 4 * s);
    PLACE(ground, 2 * r);
    PLACE(chain_x, tops);
    PLACE(net, 2 * n);
    PLACE(new_pos, 2 * n);
    PLACE(bad, w);
    PLACE(contact_ids, 2 * r);
    PLACE(contact_w, 4 * r);
    PLACE(sums, edges);
    PLACE(features, 3 * (v + 1));
    int64_t *rows = place(base, &at, (s > n ? s : n) * (int64_t)sizeof(int64_t));
    if (work)
        *work = rows;
    return at;
}

/* The union's sizes into t, the edges and diagonals as bounds until vx_build
 * counts them; returns the bytes of the buffer vx_build needs, zeroed. */
int64_t vx_count(const Builder *b, Table *t)
{
    int64_t count[KINDS], rows[KINDS] = {0}, w, k;
    for (w = 0; w < b->worlds; w++) {
        body_rows(b, t, b->grid[w], NULL, count);
        for (k = 0; k < KINDS; k++)
            rows[k] += count[k];
    }
    t->worlds = b->worlds;
    t->masses = rows[MASS] + b->worlds * b->part_masses;
    t->springs = rows[SPRING] + b->worlds * b->part_springs;
    t->robots = rows[MASS];
    t->voxels = rows[VOX];
    t->actuators = rows[ACT];
    t->chain = b->part_top;
    t->edges = 2 * t->actuators;
    t->diagonals = t->voxels;
    return lay_out(t, NULL, NULL);
}

/* Every world's rows, the part's after its body's, and each kind's starts. */
static void union_rows(const Builder *b, const Table *t)
{
    const int64_t n = b->worlds + 1;
    int64_t at[KINDS] = {0}, count[KINDS], w, k;
    for (w = 0; w < b->worlds; w++) {
        for (k = 0; k < KINDS; k++)
            t->starts[k * n + w] = at[k];
        body_rows(b, t, b->grid[w], at, count);
        const int64_t m = at[MASS] + count[MASS], s = at[SPRING] + count[SPRING], top = at[TOP] + count[TOP];
        for (k = 0; k < b->part_masses; k++) {
            t->pos[2 * (m + k)] = b->part_pos[2 * k];
            t->pos[2 * (m + k) + 1] = b->part_pos[2 * k + 1];
            t->mass[m + k] = b->part_mass[k];
            t->pinned[m + k] = b->part_pinned[k];
        }
        for (k = 0; k < b->part_springs; k++) {
            t->spring_i[s + k] = m + b->part_spring_i[k];
            t->spring_j[s + k] = m + b->part_spring_j[k];
            t->spring_k[s + k] = b->part_spring_k[k];
            t->spring_rest[s + k] = b->part_spring_rest[k];
        }
        for (k = 0; k < b->part_top; k++)
            t->bridge_top[top + k] = m + b->part_bridge_top[k];
        count[MASS] += b->part_masses;
        count[SPRING] += b->part_springs;
        count[TOP] += b->part_top;
        for (k = 0; k < KINDS; k++)
            at[k] += count[k];
    }
    for (k = 0; k < KINDS; k++)
        t->starts[k * n + b->worlds] = at[k];
}

/* The tables derived from the union's rows, as the header sets out; ``work``
 * holds max(springs, masses) rows. */
static void derive(const Builder *b, Table *t, int64_t *work)
{
    const int64_t n = t->masses, s = t->springs, a = t->actuators, v = t->voxels;
    const int64_t *masses = t->starts + MASS * (t->worlds + 1), *acts = t->starts + ACT * (t->worlds + 1);
    int64_t w, m, k, q, e, d;
    for (w = 0, q = 0; w < t->worlds; w++) {
        for (m = masses[w]; m < masses[w + 1]; m++) {
            t->inv_mass[m] = t->pinned[m] ? 0.0 : 1.0 / t->mass[m];
            if (t->is_robot[m]) {
                t->robot_ids[q] = m;
                t->robot_world[q++] = w;
            }
        }
        for (k = acts[w]; k < acts[w + 1]; k++)
            t->act_world[k] = w;
    }
    for (q = 0; q < t->robots; q = k) {  /* one robot at a time */
        double total = 0.0;
        for (k = q; k < t->robots && t->robot_world[k] == t->robot_world[q]; k++)
            total = total + t->mass[t->robot_ids[k]];
        for (e = q; e < k; e++)
            t->com_weights[e] = t->mass[t->robot_ids[e]] / total;
    }
    for (k = 0; k < s; k++) {
        const double m_avg = 0.5 * (t->mass[t->spring_i[k]] + t->mass[t->spring_j[k]]);
        t->spring_current_rest[k] = t->spring_rest[k];
        t->spring_target_rest[k] = t->spring_rest[k];
        t->spring_c[k] = (b->damping_ratio * 2.0) * sqrt(t->spring_k[k] * m_avg);
    }

    /* work[k]: how many actuators drive spring k; then its row of edge_ids */
    for (k = 0; k < s; k++)
        work[k] = 0;
    for (q = 0; q < 2 * a; q++)
        work[t->actuator_springs[q]]++;
#define HOLDS(k) (work[t->vox_h_edges[2 * (k)]] | work[t->vox_h_edges[2 * (k) + 1]] | \
                  work[t->vox_v_edges[2 * (k)]] | work[t->vox_v_edges[2 * (k) + 1]])
    for (k = 0, d = 0; k < v; k++)
        d += HOLDS(k) != 0;
    t->diagonals = d;
    for (k = 0, e = 0; k < v; k++)
        if (HOLDS(k)) {
            t->diagonal_sides[e] = t->vox_h_edges[2 * k];  /* bottom */
            t->diagonal_sides[d + e] = t->vox_v_edges[2 * k];  /* left */
            t->diagonal_sides[2 * d + e] = t->vox_h_edges[2 * k + 1];  /* top */
            t->diagonal_sides[3 * d + e] = t->vox_v_edges[2 * k + 1];  /* right */
            t->diagonal_ids[e] = t->vox_shear[2 * k];
            t->diagonal_ids[d + e] = t->vox_shear[2 * k + 1];
            e++;
        }
#undef HOLDS
    for (k = 0, e = 0; k < s; k++)
        if (work[k]) {
            t->edge_ids[e] = k;
            t->edge_count[e] = work[k];
            t->edge_limit[e] = b->actuation_rate * t->spring_rest[k];
            work[k] = e++;
        }
    t->edges = e;
    for (q = 0; q < 2 * a; q++)
        t->edge_slot[q] = work[t->actuator_springs[q]];

    /* each mass's spring ends: work[m] counts them, then is where its next goes */
    for (m = 0; m < n; m++)
        work[m] = 0;
    for (k = 0; k < s; k++) {
        work[t->spring_i[k]]++;
        work[t->spring_j[k]]++;
    }
    t->end_starts[0] = 0;
    for (m = 0; m < n; m++) {
        t->end_starts[m + 1] = t->end_starts[m] + work[m];
        work[m] = t->end_starts[m];
    }
    for (k = 0; k < 2 * s; k++)
        t->ends[work[k < s ? t->spring_i[k] : t->spring_j[k - s]]++] = k;
}

/* Lay out t's union in the zeroed buffer at ``base``, of the bytes vx_count
 * returned, point t at its tables, and fill every one of them. */
void vx_build(const Builder *b, Table *t, void *base)
{
    int64_t *work;
    lay_out(t, base, &work);
    union_rows(b, t);
    derive(b, t, work);
}

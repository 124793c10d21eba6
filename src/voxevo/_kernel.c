/*
 * The compiled core of voxevo's mass-spring engine (see sim_core.py): the
 * step, the episode loop around it, the actuation targets and both
 * controllers, the modular network included; and the builder of a batch's
 * worlds (vx_count, vx_build), set out at the end of this file.
 *
 * vx_run steps a union of worlds until the first of: a step on which a
 * world diverged; a step after which some mass has !(x < finish_reach);
 * and the stop time. At each control step it sets the targets from the
 * batch's controller table: the fixed alternation, or the modular network
 * on the observations it fills (vx_act).
 *
 * Every function but the builder's takes one Table: pointers into a
 * WorldState's numpy arrays, its sizes and the engine's constants, built
 * once per state by sim_core._kernel_table. The arithmetic is numpy's, operation for
 * operation and in the same order, so every trajectory keeps its bits:
 *  - each expression is evaluated as the numpy code wrote it, one IEEE
 *    double operation at a time; the build flags forbid contraction into
 *    fused multiply-adds and any fast-math reassociation;
 *  - sqrt and hypot are libm's, which numpy calls too;
 *  - np.maximum, np.minimum and np.clip are reproduced with their NaN
 *    propagation and their choice between equal operands (see below);
 *  - sums that numpy forms with np.bincount or a reduction start from +0.0
 *    and add their terms in numpy's order.
 * The modular network is the exception: it has numerics of its own, the
 * same on every CPU, set out above vx_presum. tests/oracles.py keeps the
 * numpy code as the reference all of these are tested against, byte for
 * byte.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

typedef struct {
    /* sizes */
    int64_t masses, springs, robots, worlds;
    int64_t chain;      /* top-chain masses per world; 0 when flat */
    int64_t edges;      /* actuated edge springs */
    int64_t diagonals;  /* voxels holding an actuated edge */
    int64_t terrain;    /* 0 none, 1 flat, 2 bridge */
    int64_t actuators;  /* active voxels */
    int64_t steps_per_action;
    /* constants */
    double dt, stiffness, damping, mu, limit, span_start, span_end;
    double action_low, action_high;
    /* state, written */
    double *pos, *vel;  /* (masses, 2) */
    double *rest;       /* spring_current_rest */
    double *target;     /* spring_target_rest */
    int64_t *clamped_actions;  /* (worlds,) */
    /* state, read */
    const double *mass, *inv_mass;  /* (masses,), (masses, 2) */
    const int64_t *spring_i, *spring_j;
    const double *spring_k, *spring_c, *spring_rest;
    const int64_t *edge_ids;
    const double *edge_limit, *edge_floor;
    const int64_t *edge_slot;   /* (actuators, 2): each actuator's springs' rows in edge_ids */
    const int64_t *edge_count;  /* actuators per actuated edge, 1 or 2 */
    const int64_t *act_world;
    const int64_t *diagonal_sides;  /* (2, 2, diagonals): (bottom, left), (top, right) */
    const int64_t *diagonal_ids;    /* (2, diagonals) */
    const int64_t *robot_ids, *robot_world, *bridge_top, *mass_starts;
    /* the force table: one term per row, summed into its flat (mass, axis) bin */
    int64_t *bins;
    double *terms;
    /* scratch */
    double *net;            /* (masses, 2) the summed forces */
    double *new_pos;        /* (masses, 2) */
    int64_t *diverged;      /* (worlds,) */
    int64_t *blown;         /* (1,) how many worlds vx_run's last step named */
    int64_t *contact_ids;   /* (2, robots) a strip contact's mass and segment */
    double *contact_w;      /* (2, robots) its right end's weight and its depth */
    double *clamped;        /* (actuators,) */
    double *sums;           /* (edges,) */
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
    double *rest = t->rest;
    int64_t e, k, moving = 0;
    for (e = 0; e < t->edges; e++) {
        int64_t s = t->edge_ids[e];
        moving |= (t->target[s] - rest[s]) != 0.0;  /* NaN counts as moving */
    }
    if (!moving)
        return;
    for (e = 0; e < t->edges; e++) {
        int64_t s = t->edge_ids[e];
        double delta = t->target[s] - rest[s];
        delta = np_min(delta, t->edge_limit[e]);
        delta = np_max(delta, t->edge_floor[e]);
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

/* The springs' block: rows fx, fy, -fx, -fy of the Hooke + axial damping
 * force of every spring, for its i x, i y, j x and j y bins. */
void vx_spring_forces(const Table *t)
{
    const int64_t s = t->springs;
    const double *pos = t->pos, *vel = t->vel;
    double *terms = t->terms;
    int64_t k;
    for (k = 0; k < s; k++) {
        int64_t i = t->spring_i[k], j = t->spring_j[k];
        double dx = pos[2 * j] - pos[2 * i];
        double dy = pos[2 * j + 1] - pos[2 * i + 1];
        double dist = dx * dx;
        dist = dist + dy * dy;
        dist = np_max(sqrt(dist), 1e-12);
        double dvx = vel[2 * j] - vel[2 * i];
        double dvy = vel[2 * j + 1] - vel[2 * i + 1];
        double rel_speed = dvx * dx;
        rel_speed = rel_speed + dvy * dy;
        rel_speed = rel_speed / dist;
        double magnitude = t->spring_k[k] * (dist - t->rest[k]);
        magnitude = magnitude + t->spring_c[k] * rel_speed;
        magnitude = magnitude / dist;
        double fx = dx * magnitude, fy = dy * magnitude;
        terms[k] = fx;
        terms[s + k] = fy;
        terms[2 * s + k] = -fx;
        terms[3 * s + k] = -fy;
    }
}

/* The strip block from row ``start``: the (ft, fn) of each robot mass over
 * the span that sinks into its own world's top chain, then the reactions
 * -ft*u and -ft*w on the x of its segment's left and right ends, then -fn*u
 * and -fn*w on their y; w is the right end's weight and u = 1 - w the
 * left's. Six rows of one term per such mass, in robot-mass order. Returns
 * the block's end. */
static int64_t bridge_contact(const Table *t, int64_t start)
{
    const double *pos = t->pos, *vel = t->vel;
    const int64_t r = t->robots, chain = t->chain;
    int64_t *ids = t->contact_ids, *segs = t->contact_ids + r;
    double *weights = t->contact_w, *depths = t->contact_w + r;
    int64_t q, c, n = 0;
    for (q = 0; q < r; q++) {
        int64_t m = t->robot_ids[q];
        double x = pos[2 * m];
        if (!(x > t->span_start && x < t->span_end))
            continue;
        /* segment under the mass: how many of its chain's masses lie left of it */
        const int64_t *top = t->bridge_top + t->robot_world[q] * chain;
        int64_t seg = -1;
        for (c = 0; c < chain; c++)
            seg += pos[2 * top[c]] < x;
        seg = seg < 0 ? 0 : (seg > chain - 2 ? chain - 2 : seg);
        int64_t left = top[seg], right = top[seg + 1];
        double left_x = pos[2 * left];
        double span = np_max(pos[2 * right] - left_x, 1e-9);
        double w = clip_scalar((x - left_x) / span, 0.0, 1.0);
        double u = 1 - w;
        double depth = pos[2 * left + 1] * u + pos[2 * right + 1] * w;
        depth = depth - pos[2 * m + 1];
        if (!(depth > 0.0))
            continue;
        ids[n] = m;
        segs[n] = top + seg - t->bridge_top;
        weights[n] = w;
        depths[n] = depth;
        n++;
    }
    int64_t *bins = t->bins + start;
    double *terms = t->terms + start;
    for (q = 0; q < n; q++) {
        int64_t m = ids[q];
        int64_t left = t->bridge_top[segs[q]], right = t->bridge_top[segs[q] + 1];
        double w = weights[q];
        double u = 1 - w;
        double rel_vy = vel[2 * m + 1] - (vel[2 * left + 1] * u + vel[2 * right + 1] * w);
        double rel_vx = vel[2 * m] - (vel[2 * left] * u + vel[2 * right] * w);
        double fn = np_max(t->stiffness * depths[q] - t->damping * rel_vy, 0.0);
        double ft = clip_array(-t->mass[m] * rel_vx / t->dt, -t->mu * fn, t->mu * fn);
        terms[q] = ft;
        terms[n + q] = fn;
        terms[2 * n + q] = -ft * u;
        terms[3 * n + q] = -ft * w;
        terms[4 * n + q] = -fn * u;
        terms[5 * n + q] = -fn * w;
        bins[q] = 2 * m;
        bins[n + q] = 2 * m + 1;
        bins[2 * n + q] = 2 * left;
        bins[3 * n + q] = 2 * right;
        bins[4 * n + q] = 2 * left + 1;
        bins[5 * n + q] = 2 * right + 1;
    }
    return start + 6 * n;
}

/* The robot masses' contact forces, after the springs' block: the ground
 * block's (ft, fn) rows on the rigid surface at y=0 (the pads only, on a
 * bridge), then the strip block. Returns where the written terms end. */
int64_t vx_contact_forces(const Table *t)
{
    const int64_t r = t->robots;
    const double *pos = t->pos, *vel = t->vel;
    const int bridge = t->terrain == 2;
    double *ft_row = t->terms + 4 * t->springs, *fn_row = ft_row + r;
    int64_t q;
    if (t->terrain == 0)
        return 4 * t->springs;
    for (q = 0; q < r; q++) {
        int64_t m = t->robot_ids[q];
        double px = pos[2 * m], py = pos[2 * m + 1];
        double fn = py * -t->stiffness;
        fn = fn - t->damping * vel[2 * m + 1];
        fn = np_max(fn, 0.0);
        fn = fn * (py < 0.0 ? 1.0 : 0.0);
        if (bridge)
            fn = fn * ((px <= t->span_start || px >= t->span_end) ? 1.0 : 0.0);
        double cap = t->mu * fn;
        double ft = t->mass[m] * vel[2 * m];
        ft = ft / -t->dt;
        ft = np_min(ft, cap);
        ft = np_max(ft, -cap);
        ft_row[q] = ft;
        fn_row[q] = fn;
    }
    int64_t ground_end = 4 * t->springs + 2 * r;
    return bridge ? bridge_contact(t, ground_end) : ground_end;
}

/* Every spring and contact force on each mass into t->net: the force
 * table's terms summed into their bins in table order, from +0.0. */
void vx_net_forces(const Table *t)
{
    int64_t k, stop;
    vx_spring_forces(t);
    stop = vx_contact_forces(t);
    for (k = 0; k < 2 * t->masses; k++)
        t->net[k] = 0.0;
    for (k = 0; k < stop; k++)
        t->net[t->bins[k]] += t->terms[k];
}

/* One semi-implicit Euler step of every world. Writes the ids of the worlds
 * whose new position is non-finite or beyond the limit into t->diverged,
 * ascending, and returns their number; those worlds keep their positions,
 * every other world commits its step. */
static int64_t one_step(const Table *t, double gravity)
{
    const double dt = t->dt, limit = t->limit;
    double *pos = t->pos, *vel = t->vel, *net = t->net, *new_pos = t->new_pos;
    int64_t w, m, diverged = 0;
    advance_actuation(t);
    vx_net_forces(t);
    for (w = 0; w < t->worlds; w++) {
        int sane = 1;
        for (m = t->mass_starts[w]; m < t->mass_starts[w + 1]; m++) {
            double fx = net[2 * m], fy = net[2 * m + 1] - gravity * t->mass[m];
            fx = fx * t->inv_mass[2 * m] * dt;
            fy = fy * t->inv_mass[2 * m + 1] * dt;
            vel[2 * m] = vel[2 * m] + fx;
            vel[2 * m + 1] = vel[2 * m + 1] + fy;
            double x = vel[2 * m] * dt + pos[2 * m];
            double y = vel[2 * m + 1] * dt + pos[2 * m + 1];
            new_pos[2 * m] = x;
            new_pos[2 * m + 1] = y;
            sane &= fabs(x) <= limit && fabs(y) <= limit;  /* false for NaN too */
        }
        if (!sane) {
            t->diverged[diverged++] = w;
            continue;
        }
        for (m = 2 * t->mass_starts[w]; m < 2 * t->mass_starts[w + 1]; m++)
            pos[m] = new_pos[m];
    }
    return diverged;
}

/* Set the actuated edges' targets from one command per active voxel: each
 * command clamped into [action_low, action_high] (a NaN stays NaN, and
 * counts as clamped), counted per world when clamping changed it; an edge
 * takes its build-time rest length times the mean of its actuators'
 * clamped commands, summed in edge_slot order from +0.0 as np.bincount
 * does. */
void vx_set_targets(const Table *t, const double *commands)
{
    double *clamped = t->clamped, *sums = t->sums;
    int64_t q, e;
    for (q = 0; q < t->actuators; q++) {
        double c = np_min(np_max(commands[q], t->action_low), t->action_high);
        t->clamped_actions[t->act_world[q]] += !(c == commands[q]);
        clamped[q] = c;
    }
    for (e = 0; e < t->edges; e++)
        sums[e] = 0.0;
    for (q = 0; q < 2 * t->actuators; q++)
        sums[t->edge_slot[q]] += clamped[q / 2];
    for (e = 0; e < t->edges; e++) {
        int64_t s = t->edge_ids[e];
        t->target[s] = t->spring_rest[s] * sums[e] / (double)t->edge_count[e];
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
 *  - the loops are vectorised across units, never across a sum: lane l of a
 *    vector holds unit 8v + l, so each lane does the same operations
 *    whatever the vector width, and every clone gives the same bits;
 *  - tanh and the logistic use exp8, built from +, -, *, / and exponent
 *    bits; tanh takes an odd Taylor polynomial for |x| < TANH_NEAR;
 *  - z sums w2[j] * tanh(h_j) in lanes, lane l over j = l, l + 8, l + 16,
 *    l + 24 in that order, then the 8 lanes in order, then adds b2; the
 *    command is action_low + 1 / (1 + exp(-z)), z clipped to [-60, 60]
 *    first, which moves no command (0.6 + logistic(+-60) is 1.6 and 0.6
 *    exactly).
 * tests/oracles.py's reference_network does the same operations in numpy.
 *
 * vx_presum and vx_mlp are compiled for AVX-512 and the baseline
 * (target_clones); the loader picks the clone the CPU runs, so a CPU with
 * AVX2 but no AVX-512 runs the baseline. Only the AVX-512 clone is fast:
 * eight lanes are one of its registers, while GCC splits them for the
 * baseline and keeps them in memory. On a 17-world W5 batch (174 active
 * voxels) on a 2-vCPU Xeon with AVX-512, vx_mlp took 40-46 us with the
 * AVX-512 clone and about 255 us with the baseline (SSE2); a numpy GEMM
 * network took 148 us on the same rows. So the baseline clone is the
 * correct path for CPUs without AVX-512, not a fast one. Defining
 * VX_DEFAULT_CLONE_ONLY builds the baseline clone alone, which is how the
 * tests check that the two clones agree.
 */

#define UNITS 32      /* hidden units */
#define MATERIAL 45   /* material entries: 9 slots x 5 indicators */
#define DYNAMIC 27    /* dynamic entries: 9 slots x (volume, vx, vy) */
#define INPUTS (DYNAMIC + 1)  /* a control step's inputs: the dynamic entries, then the parity */
#define LANES 8
#define VECTORS (UNITS / LANES)

#ifdef VX_DEFAULT_CLONE_ONLY
#define VX_CLONES
#else
#define VX_CLONES __attribute__((target_clones("avx512f", "default")))
#endif

/* Eight lanes, whatever the clone: the baseline clone runs each operation
 * as four SSE2 ones. Values of these types are passed by pointer only, so
 * no function's ABI depends on the clone. */
typedef double v8d __attribute__((vector_size(LANES * sizeof(double))));
typedef int64_t v8i __attribute__((vector_size(LANES * sizeof(int64_t))));
typedef uint64_t v8u __attribute__((vector_size(LANES * sizeof(uint64_t))));

#define SPLAT(c) ((v8d){0} + (c))
/* lanes of a where mask is set (all ones), of b where it is clear */
#define SELECT(mask, a, b) ((v8d)(((mask) & (v8i)(a)) | (~(mask) & (v8i)(b))))
/* the mask of a < b, for a and b without sign bits: their bit patterns
 * order as their values do, with NaN above all. Integer arithmetic, as
 * a floating-point comparison of eight lanes has no AVX2 or SSE2 form
 * and would run lane by lane. */
#define BELOW(a, b) ((v8i) - (((v8u)(a) - (v8u)(b)) >> 63))
/* |x| clipped to c, a NaN kept */
#define CLIP_ABS(a, c) SELECT(BELOW(a, SPLAT(c)) | BELOW(SPLAT(INFINITY), a), a, SPLAT(c))

static inline void load8(v8d *v, const double *p) { memcpy(v, p, sizeof *v); }
static inline void store8(double *p, const v8d *v) { memcpy(p, v, sizeof *v); }

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

/* e^x in every lane, for |x| <= 700: within 1 ulp on [-60, 60]; NaN stays NaN */
static inline void exp8(v8d *y, const v8d *x)
{
    v8d t = *x * LOG2E + SHIFTER;
    v8d k = t - SHIFTER;
    v8d r = *x - k * LN2_HI;
    r = r - k * LN2_LO;
    v8d p = SPLAT(EXP_TAYLOR[0]);
#pragma GCC unroll 16
    for (int n = 1; n < 14; n++)
        p = p * r + EXP_TAYLOR[n];
    v8u scale = (v8u)((v8i)t - (int64_t)0x4338000000000000) + 1023;  /* k + 1023, from SHIFTER's bits */
    *y = p * (v8d)(scale << 52);
}

/* tanh in every lane: within 1.7e-16 absolute and 6 ulp on [-30, 30]; the
 * sign of x is put back last, so tanh(-0.0) is -0.0; NaN stays NaN */
static inline void tanh8(v8d *y, const v8d *x)
{
    v8i sign = (v8i)*x & INT64_MIN;
    v8d a = (v8d)((v8i)*x & INT64_MAX);
    v8d twice = CLIP_ABS(a, 20.0);  /* tanh 20 rounds to 1, as tanh of all beyond */
    twice = twice + twice;
    v8d e;
    exp8(&e, &twice);
    v8d far = 1.0 - 2.0 / (e + 1.0);
    v8d s = a * a;
    v8d q = SPLAT(TANH_TAYLOR[0]);
#pragma GCC unroll 8
    for (int n = 1; n < 7; n++)
        q = q * s + TANH_TAYLOR[n];
    v8d near = a + a * s * q;
    v8d m = SELECT(BELOW(a, SPLAT(TANH_NEAR)), near, far);
    *y = (v8d)((v8i)m | sign);
}

/* The state's observation windows: control._window_tables builds them once
 * per state. */
typedef struct {
    int64_t voxels;          /* non-empty robot voxels */
    const int64_t *corners;  /* (voxels, 4) corner mass ids, (bl, br, tr, tl) */
    const int64_t *gather;   /* (rows, 27) flat entry of features behind each dynamic entry */
    double *features;        /* (voxels + 1, 3) volume, vx, vy; the last row stays zero */
} Windows;

/* A batch's controllers: control._controller_table builds one per batch. */
typedef struct {
    int64_t fixed;           /* the fixed alternation, else the modular network */
    int64_t rows;            /* commands per control step, one per active voxel */
    const Windows *windows;  /* the state's, whose features a modular control step reads */
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

/* Write every voxel's shoelace area and mean corner velocity into the
 * feature table. The corner sums add left to right from +0.0, as numpy's
 * sum over the rows of a (voxels, 4) array does. */
void vx_fill_features(const Table *t, const Windows *w)
{
    const double *pos = t->pos, *vel = t->vel;
    double *features = w->features;
    int64_t v, k;
    for (v = 0; v < w->voxels; v++) {
        const int64_t *c = w->corners + 4 * v;
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
        v8d h[VECTORS], w;
#pragma GCC unroll 4
        for (u = 0; u < VECTORS; u++)
            load8(&h[u], b->b1 + world * UNITS + u * LANES);
        for (c = 0; c < MATERIAL; c++) {
#pragma GCC unroll 4
            for (u = 0; u < VECTORS; u++) {
                load8(&w, weights + c * UNITS + u * LANES);
                h[u] = h[u] + w * x[c];
            }
        }
#pragma GCC unroll 4
        for (u = 0; u < VECTORS; u++)
            store8(b->pre + r * UNITS + u * LANES, &h[u]);
    }
}

/* The network's logistic 1 / (1 + exp(-z)) for every row into b->actions,
 * from b->pre and b->inputs, in passes over all rows, each row independent
 * of the others within a pass: the hidden sums, their tanh, the output
 * sums, the logistic. Adding action_low makes it the command. */
VX_CLONES void vx_mlp(const Brain *b)
{
    int64_t r, k, u, l;
    v8d h[VECTORS], w, acc;
    for (r = 0; r < b->rows; r++) {
        const double *weights = b->w_inputs + b->world[r] * INPUTS * UNITS;
        const double *x = b->inputs + r * INPUTS;
#pragma GCC unroll 4
        for (u = 0; u < VECTORS; u++)
            load8(&h[u], b->pre + r * UNITS + u * LANES);
        for (k = 0; k < INPUTS; k++) {
#pragma GCC unroll 4
            for (u = 0; u < VECTORS; u++) {
                load8(&w, weights + k * UNITS + u * LANES);
                h[u] = h[u] + w * x[k];
            }
        }
#pragma GCC unroll 4
        for (u = 0; u < VECTORS; u++)
            store8(b->hidden + r * UNITS + u * LANES, &h[u]);
    }
    for (k = 0; k < b->rows * UNITS; k += LANES) {
        load8(&w, b->hidden + k);
        tanh8(&w, &w);
        store8(b->hidden + k, &w);
    }
    for (r = 0; r < b->rows; r++) {
        const int64_t world = b->world[r];
#pragma GCC unroll 4
        for (u = 0; u < VECTORS; u++) {
            load8(&h[u], b->hidden + r * UNITS + u * LANES);
            load8(&w, b->w2 + world * UNITS + u * LANES);
            h[u] = h[u] * w;
        }
        acc = h[0];
#pragma GCC unroll 4
        for (u = 1; u < VECTORS; u++)
            acc = acc + h[u];
        double z = acc[0];
#pragma GCC unroll 8
        for (l = 1; l < LANES; l++)
            z = z + acc[l];
        b->actions[r] = z + b->b2[world];
    }
    for (r = 0; r < b->rows; r += LANES) {
        double z8[LANES] = {0};
        const int64_t n = b->rows - r < LANES ? b->rows - r : LANES;
        v8d z, e;
        memcpy(z8, b->actions + r, n * sizeof(double));
        load8(&z, z8);
        v8i sign = (v8i)z & INT64_MIN;
        z = (v8d)((v8i)z & INT64_MAX);
        z = (v8d)((v8i)CLIP_ABS(z, 60.0) | sign);  /* z clipped to [-60, 60] */
        z = -z;
        exp8(&e, &z);
        z = 1.0 / (1.0 + e);
        store8(z8, &z);
        memcpy(b->actions + r, z8, n * sizeof(double));
    }
}

/* One control step's commands into b->actions: the fixed alternation, or
 * the network on the current observations, ``parity`` being the control
 * step's. */
void vx_act(const Table *t, const Brain *b, int64_t parity)
{
    int64_t r, k;
    if (b->fixed) {
        for (r = 0; r < b->rows; r++)
            b->actions[r] = parity ? t->action_low : t->action_high;
        return;
    }
    const Windows *w = b->windows;
    vx_fill_features(t, w);
    for (r = 0; r < b->rows; r++) {
        double *x = b->inputs + r * INPUTS;
        for (k = 0; k < DYNAMIC; k++)
            x[k] = w->features[w->gather[r * DYNAMIC + k]];
        x[DYNAMIC] = (double)parity;
    }
    vx_mlp(b);
    for (r = 0; r < b->rows; r++)
        b->actions[r] = t->action_low + b->actions[r];
}

/* Step from time ``time`` until the first of: a step on which a world
 * diverged (their ids in t->diverged, their number in t->blown); a step
 * after which some mass has !(x < finish_reach), NaN included; and time
 * ``stop``. With a controller table ``b``, every control step k first sets
 * the targets to b's commands (vx_act, with k's parity); without one, the
 * targets stay as the caller set them. Returns the number of steps taken. */
int64_t vx_run(const Table *t, const Brain *b, int64_t time, int64_t stop, double finish_reach, double gravity)
{
    int64_t taken = 0, diverged = 0, m;
    while (time < stop) {
        if (b && time % t->steps_per_action == 0) {
            vx_act(t, b, (time / t->steps_per_action) % 2);
            vx_set_targets(t, b->actions);
        }
        diverged = one_step(t, gravity);
        time++;
        taken++;
        if (diverged)
            break;
        for (m = 0; m < t->masses && t->pos[2 * m] < finish_reach; m++)
            ;
        if (m < t->masses)
            break;
    }
    t->blown[0] = diverged;
    return taken;
}

/* ---- building worlds -------------------------------------------------------
 *
 * vx_count and vx_build make a batch's disjoint union of worlds
 * (sim_core.build_worlds): vx_count writes each kind's starts, from which
 * Python sizes the tables, and vx_build fills them. World w holds the rows
 * of body grid[w], then, if there is one, the part every world appends
 * (the settled bridge strip); every index is a union id.
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
 * vector, as np.hypot computes them. tests/oracles.py's
 * reference_build_worlds is the numpy builder these tables are tested
 * against, byte for byte.
 */

enum { MASS, SPRING, VOX, ACT, TOP, KINDS };  /* the kinds of row, in starts' order */

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
    /* read */
    const int8_t *cells;       /* (bodies, h, w) material codes */
    const int64_t *grid;       /* (worlds,) each world's body */
    const double *stiffness;   /* edge stiffness by material code */
    const double *part_pos, *part_mass;  /* the part's tables, its ids its own */
    const uint8_t *part_pinned;
    const int64_t *part_spring_i, *part_spring_j;
    const double *part_spring_k, *part_spring_rest;
    const int64_t *part_bridge_top;
    /* scratch: 3 (h + 1) (w + 1) ids, by grid corner, horizontal and vertical edge */
    int64_t *scratch;
    /* written: the starts by vx_count, the rest by vx_build */
    int64_t *starts;           /* (KINDS, worlds + 1) */
    double *pos, *mass;        /* (masses, 2), (masses,) */
    uint8_t *pinned, *is_robot;
    int64_t *spring_i, *spring_j;
    double *spring_k, *spring_rest;
    int64_t *vox_cells, *vox_corners, *vox_h_edges, *vox_v_edges, *vox_shear;  /* (voxels, 2 or 4) */
    int64_t *actuator_cells, *actuator_springs;  /* (actuators, 2) */
    int64_t *bridge_top;
} Builder;

/* The spring from corner i to corner j (ids among the body's), of
 * stiffness k, numbered on first use: in *slot when an edge, whose ends are
 * then sorted and which keeps the stiffer k of its voxels', or always new
 * when a diagonal (slot NULL). Returns its id among the body's. */
static int64_t spring(const Builder *b, const int64_t *at, int64_t *count, int64_t *slot, int64_t i, int64_t j, double k)
{
    if (slot && *slot >= 0) {
        if (at)
            b->spring_k[at[SPRING] + *slot] = np_max(b->spring_k[at[SPRING] + *slot], k);
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
        const double *pi = b->pos + 2 * (at[MASS] + i), *pj = b->pos + 2 * (at[MASS] + j);
        b->spring_i[at[SPRING] + s] = at[MASS] + i;
        b->spring_j[at[SPRING] + s] = at[MASS] + j;
        b->spring_k[at[SPRING] + s] = k;
        b->spring_rest[at[SPRING] + s] = hypot(pi[0] - pj[0], pi[1] - pj[1]);
    }
    return s;
}

/* Number body g's rows and count them into count[KINDS]; with row offsets
 * ``at``, also write them there. */
static void body_rows(const Builder *b, int64_t g, const int64_t *at, int64_t *count)
{
    const int64_t h = b->h, w = b->w, stride = w + 1, grid = (h + 1) * stride;
    const int8_t *cells = b->cells + g * h * w;
    int64_t *corner = b->scratch, *h_edge = corner + grid, *v_edge = h_edge + grid;
    int64_t r, c, k, low = w, bottom = 0;
    for (k = 0; k < 3 * grid; k++)
        corner[k] = -1;
    for (k = 0; k < KINDS; k++)
        count[k] = 0;
    for (r = 0; r < h; r++)
        for (c = 0; c < w; c++)
            if (cells[r * w + c]) {
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
                        b->pos[2 * (at[MASS] + *slot)] = x0 + (double)pj;
                        b->pos[2 * (at[MASS] + *slot) + 1] = y0 - (double)pi;
                        b->mass[at[MASS] + *slot] = 0.0;
                    }
                }
                id[k] = *slot;
                if (at)
                    b->mass[at[MASS] + id[k]] += 1.0;  /* voxels holding it, exact */
            }
            const double edge = b->stiffness[code], diagonal = edge * b->shear;
            const int64_t bottom_edge = spring(b, at, count, h_edge + (r + 1) * stride + c, id[2], id[3], edge);
            const int64_t top_edge = spring(b, at, count, h_edge + r * stride + c, id[0], id[1], edge);
            const int64_t left_edge = spring(b, at, count, v_edge + r * stride + c, id[2], id[0], edge);
            const int64_t right_edge = spring(b, at, count, v_edge + r * stride + c + 1, id[3], id[1], edge);
            const int64_t rising = spring(b, at, count, NULL, id[2], id[1], diagonal);
            const int64_t falling = spring(b, at, count, NULL, id[3], id[0], diagonal);
            const int active = code == b->actuator_h || code == b->actuator_v;
            if (at) {
                const int64_t v = at[VOX] + count[VOX], s = at[SPRING], m = at[MASS];
                b->vox_cells[2 * v] = r;
                b->vox_cells[2 * v + 1] = c;
                b->vox_corners[4 * v] = m + id[2];  /* bl, br, tr, tl */
                b->vox_corners[4 * v + 1] = m + id[3];
                b->vox_corners[4 * v + 2] = m + id[1];
                b->vox_corners[4 * v + 3] = m + id[0];
                b->vox_h_edges[2 * v] = s + bottom_edge;
                b->vox_h_edges[2 * v + 1] = s + top_edge;
                b->vox_v_edges[2 * v] = s + left_edge;
                b->vox_v_edges[2 * v + 1] = s + right_edge;
                b->vox_shear[2 * v] = s + rising;
                b->vox_shear[2 * v + 1] = s + falling;
                if (active) {
                    const int64_t a = at[ACT] + count[ACT];
                    const int horizontal = code == b->actuator_h;
                    b->actuator_cells[2 * a] = r;
                    b->actuator_cells[2 * a + 1] = c;
                    b->actuator_springs[2 * a] = s + (horizontal ? bottom_edge : left_edge);
                    b->actuator_springs[2 * a + 1] = s + (horizontal ? top_edge : right_edge);
                }
            }
            count[VOX]++;
            count[ACT] += active;
        }
    if (at)
        for (k = at[MASS]; k < at[MASS] + count[MASS]; k++) {
            b->mass[k] = b->mass[k] * b->corner_mass;
            b->pinned[k] = 0;
            b->is_robot[k] = 1;
        }
}

/* Each kind's starts: world w's rows of a kind are starts[kind][w] up to
 * starts[kind][w + 1]; the last entry is the union's number of rows. */
void vx_count(const Builder *b)
{
    const int64_t n = b->worlds + 1;
    int64_t count[KINDS], w, k;
    for (k = 0; k < KINDS; k++)
        b->starts[k * n] = 0;
    for (w = 0; w < b->worlds; w++) {
        body_rows(b, b->grid[w], NULL, count);
        count[MASS] += b->part_masses;
        count[SPRING] += b->part_springs;
        count[TOP] += b->part_top;
        for (k = 0; k < KINDS; k++)
            b->starts[k * n + w + 1] = b->starts[k * n + w] + count[k];
    }
}

/* Every table of the union, at the starts vx_count wrote. */
void vx_build(const Builder *b)
{
    const int64_t n = b->worlds + 1;
    int64_t at[KINDS], count[KINDS], w, k;
    for (w = 0; w < b->worlds; w++) {
        for (k = 0; k < KINDS; k++)
            at[k] = b->starts[k * n + w];
        body_rows(b, b->grid[w], at, count);
        const int64_t m = at[MASS] + count[MASS], s = at[SPRING] + count[SPRING];
        for (k = 0; k < b->part_masses; k++) {
            b->pos[2 * (m + k)] = b->part_pos[2 * k];
            b->pos[2 * (m + k) + 1] = b->part_pos[2 * k + 1];
            b->mass[m + k] = b->part_mass[k];
            b->pinned[m + k] = b->part_pinned[k];
            b->is_robot[m + k] = 0;
        }
        for (k = 0; k < b->part_springs; k++) {
            b->spring_i[s + k] = m + b->part_spring_i[k];
            b->spring_j[s + k] = m + b->part_spring_j[k];
            b->spring_k[s + k] = b->part_spring_k[k];
            b->spring_rest[s + k] = b->part_spring_rest[k];
        }
        for (k = 0; k < b->part_top; k++)
            b->bridge_top[at[TOP] + k] = m + b->part_bridge_top[k];
    }
}

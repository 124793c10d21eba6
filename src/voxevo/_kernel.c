/*
 * The compiled core of voxevo's mass-spring engine (see sim_core.py): the
 * step, the episode loop around it, the actuation targets and the modular
 * controller's observation fill.
 *
 * vx_run steps a union of worlds until the first of: a step on which a
 * world diverged; a step after which some mass has !(x < finish_reach);
 * the stop time; and, unless the kernel sets the fixed alternation itself,
 * the next control step, where Python computes the modular commands and
 * sets them with vx_set_targets. vx_fill_blocks writes the observations
 * those commands are computed from.
 *
 * Every function takes one Table: pointers into a WorldState's numpy
 * arrays, its sizes and the engine's constants, built once per state by
 * sim_core._kernel_table. The arithmetic is numpy's, operation for
 * operation and in the same order, so every trajectory keeps its bits:
 *  - each expression is evaluated as the numpy code wrote it, one IEEE
 *    double operation at a time; the build flags forbid contraction into
 *    fused multiply-adds and any fast-math reassociation;
 *  - sqrt and hypot are libm's, which numpy calls too;
 *  - np.maximum, np.minimum and np.clip are reproduced with their NaN
 *    propagation and their choice between equal operands (see below);
 *  - sums that numpy forms with np.bincount or a reduction start from +0.0
 *    and add their terms in numpy's order.
 * tests/oracles.py keeps the numpy code as the reference these are tested
 * against, byte for byte.
 */

#include <math.h>
#include <stdint.h>

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
    double *commands;       /* (actuators,) the fixed alternation's commands */
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

/* Step from time ``time`` until the first of: a step on which a world
 * diverged (their ids in t->diverged, their number in t->blown); a step
 * after which some mass has !(x < finish_reach), NaN included; time
 * ``stop``; and, unless ``fixed``, the next control step, where the caller
 * sets the targets. With ``fixed``, every control step k sets them itself,
 * to action_high on even k and action_low on odd k. Returns the number of
 * steps taken. */
int64_t vx_run(const Table *t, int64_t time, int64_t stop, double finish_reach, int64_t fixed, double gravity)
{
    int64_t taken = 0, diverged = 0, q, m;
    while (time < stop) {
        if (time % t->steps_per_action == 0) {
            if (!fixed && taken)
                break;
            if (fixed) {
                double command = (time / t->steps_per_action) % 2 == 0 ? t->action_high : t->action_low;
                for (q = 0; q < t->actuators; q++)
                    t->commands[q] = command;
                vx_set_targets(t, t->commands);
            }
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

/* The modular controller's input: the blocks and index tables that
 * control._window_tables builds once per state. */
typedef struct {
    int64_t voxels;             /* non-empty robot voxels */
    int64_t entries;            /* dynamic entries: 27 per active voxel */
    int64_t rows;               /* active voxels */
    const int64_t *corners;     /* (voxels, 4) corner mass ids, (bl, br, tr, tl) */
    double *features;           /* (voxels + 1, 3) volume, vx, vy; the last row stays zero */
    double *blocks;             /* (worlds, block rows, 73) */
    const int64_t *gather;      /* (entries,) flat entry of features behind each dynamic entry */
    const int64_t *dynamic;     /* (entries,) flat entry of blocks it is written to */
    const int64_t *parity;      /* (rows,) flat entry of blocks holding each row's time signal */
} Windows;

/* Write every voxel's shoelace area and mean corner velocity into the
 * feature table, copy them to the window slots that see them, and write
 * ``parity`` as every row's time signal. The corner sums add left to right
 * from +0.0, as numpy's sum over the rows of a (voxels, 4) array does. */
void vx_fill_blocks(const Table *t, const Windows *w, double parity)
{
    const double *pos = t->pos, *vel = t->vel;
    double *features = w->features, *blocks = w->blocks;
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
    for (k = 0; k < w->entries; k++)
        blocks[w->dynamic[k]] = features[w->gather[k]];
    for (k = 0; k < w->rows; k++)
        blocks[w->parity[k]] = parity;
}

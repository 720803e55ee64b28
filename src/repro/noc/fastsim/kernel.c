/*
 * The fast engine's cycle step, compiled.
 *
 * fs_step() advances every source and router of a FastNetwork by one
 * network clock cycle, in place on the engine's NumPy arrays.  It is
 * the NumPy step of engine.py (which stays the fallback and the test
 * oracle) written as loops: the same phase order, the same ascending
 * line scans, the same line-indexed round-robin arbiters and the same
 * credit/flit calendar timing, so the two produce bit-identical state.
 *
 * Packets live in the packet store, one record per packet id: created
 * and ejected cycle and ns, measured flag and replica beside the
 * routing fields.  A replica whose arrival law compiles (law_by_copy)
 * has its arrivals drawn here, from its own NumPy generator, and
 * appended to the store and its source FIFOs; every tail ejection
 * writes its record and appends the packet id to the delivery log.
 * The step reports the packet ids of the heads it injected in `heads`,
 * for engines that keep Packet objects.
 *
 * The hot loops avoid integer division: a line's node and port come
 * from the line_node/line_port tables, and its VC from
 * line - (node * ports + port) * vcs.
 *
 * fs_net mirrors kernel.py's SCALARS, REALS and ARRAYS, field for
 * field.
 */
#include <stdint.h>

/* A NumPy bit generator's next_double and next_uint32
 * (Generator.bit_generator.ctypes), called on its state pointer. */
typedef double (*next_double_fn)(void *);
typedef uint32_t (*next_uint32_fn)(void *);

/* VC states (repro.noc.buffer) and the local port (repro.noc.topology). */
#define IDLE 0
#define ROUTING 1
#define VC_ALLOC 2
#define ACTIVE 3
#define LOCAL 0

/* Larger than any rotated arbiter priority. */
#define NO_REQUEST ((int64_t)1 << 30)

/* counters[]: the activity totals in ACTIVITY_FIELDS order, then the
 * flit accounting (engine.py's COUNTERS). */
enum {
    BUFFER_WRITES, BUFFER_READS, XBAR_TRAVERSALS, LINK_FLITS, VC_ALLOCS,
    SA_GRANTS, CREDIT_TRANSFERS, NUM_ACTIVITY,
    BUFFERED = NUM_ACTIVITY, IN_LINK, SRC_BACKLOG, QUEUED_PACKETS,
    INJECTED_FLITS, EJECTED_FLITS, STORED_PACKETS, LOGGED_DELIVERIES
};

/* law_by_copy[]: how a replica's arrivals are drawn (kernel.py LAWS). */
enum { LAW_NONE, LAW_UNIFORM, LAW_TABLE };

typedef struct {
    /* geometry and timing */
    int64_t nodes, local_nodes, ports, vcs, depth, lines, lines_per_copy;
    int64_t route_latency, va_latency, link_latency, credit_latency;
    int64_t flit_horizon, credit_horizon, multi;
    int64_t copies, packet_length, capacity;
    double node_period;
    /* flit accounting and per-replica tallies */
    int64_t *counters, *activity_by_copy, *backlog_by_copy, *ejected_by_copy;
    /* topology tables */
    int64_t *route, *link_base, *line_node, *line_port;
    /* per VC line */
    int8_t *state;
    int16_t *fifo_len;
    int64_t *fifo_head, *buf_pid, *buf_fidx, *out_port, *out_vc, *out_group;
    int64_t *out_line, *ready, *credits, *owner;
    /* per (node, port) arbiter */
    int64_t *va_ptr, *sa_in_ptr, *sa_out_ptr, *scoreboard, *group_counts;
    /* sources: linked packet FIFOs and the packet being injected */
    int64_t *q_head, *q_tail, *cur_lid, *cur_len, *cur_sent, *cur_vc;
    int64_t *src_rr, *src_credits;
    /* packet store: routing fields, then the records */
    int64_t *pkt_dst, *pkt_len, *pkt_hops, *pkt_next, *pkt_copy;
    int64_t *pkt_created_cycle, *pkt_ejected_cycle;
    double *pkt_created_ns, *pkt_ejected_ns;
    int8_t *pkt_measured;
    int64_t *delivery_log;
    /* per replica: clock, node-clock cursor, measured tallies */
    double *time_by_copy, *period_by_copy;
    int64_t *next_node_cycle, *measured_created_by_copy;
    int64_t *measured_delivered_by_copy;
    /* per replica: the arrival law, its step table and generator */
    int64_t *law_by_copy, *step_first, *step_pos, *step_cycles;
    double *step_factors, *pkt_prob;
    int64_t *dest_table;
    void **rng_state;
    next_double_fn *rng_double;
    next_uint32_fn *rng_uint32;
    /* calendars: one slot of nodes * ports entries per future cycle */
    int64_t *flit_line, *flit_pid, *flit_fidx, *flit_count;
    int64_t *credit_line, *credit_count, *credit_src, *credit_src_count;
    /* outputs and scratch */
    int64_t *heads, *scratch;
} fs_net;

int64_t fs_layout_size(void)
{
    return (int64_t)sizeof(fs_net);
}

/* The replica that owns a line (lines fit in 32 bits). */
static inline int64_t copy_of(const fs_net *n, int64_t line)
{
    return (uint32_t)line / (uint32_t)n->lines_per_copy;
}

/* Bump one per-replica activity tally. */
static inline void tally(fs_net *n, int64_t copy, int field)
{
    n->activity_by_copy[copy * NUM_ACTIVITY + field] += 1;
}

/* Buffer one arriving flit at the tail of its line's FIFO (the credit
 * protocol guarantees room, so head + len < 2 * depth). */
static void push_flit(fs_net *n, int64_t line, int64_t pid, int64_t fidx,
                      int attribute)
{
    int64_t pos = n->fifo_head[line] + n->fifo_len[line];
    if (pos >= n->depth)
        pos -= n->depth;
    pos += line * n->depth;
    n->buf_pid[pos] = pid;
    n->buf_fidx[pos] = fidx;
    n->fifo_len[line] += 1;
    n->counters[BUFFERED] += 1;
    n->counters[BUFFER_WRITES] += 1;
    if (attribute)
        tally(n, copy_of(n, line), BUFFER_WRITES);
}

/* Every source tries to inject one flit (engine.py: _step_sources).
 * Writes injected head packet ids to `heads`; returns their count. */
static int64_t step_sources(fs_net *n, int attribute, int64_t *heads)
{
    const int64_t vcs = n->vcs, pv = n->ports * n->vcs;
    int64_t *cur_lid = n->cur_lid, *q_head = n->q_head;
    int64_t count = 0, copy = 0, copy_end = n->local_nodes;
    for (int64_t node = 0; node < n->nodes; node++) {
        if (node == copy_end) {
            copy++;
            copy_end += n->local_nodes;
        }
        int64_t lid = cur_lid[node];
        if (lid < 0) {
            lid = q_head[node];
            if (lid < 0)
                continue;
            q_head[node] = n->pkt_next[lid];
            if (q_head[node] < 0)
                n->q_tail[node] = -1;
            n->counters[QUEUED_PACKETS] -= 1;
            cur_lid[node] = lid;
            n->cur_len[node] = n->pkt_len[lid];
            n->cur_sent[node] = 0;
            /* Rotate the starting VC per packet, as the reference. */
            n->cur_vc[node] = n->src_rr[node];
            n->src_rr[node] = n->src_rr[node] + 1 == vcs
                ? 0 : n->src_rr[node] + 1;
        }
        int64_t vc = n->cur_vc[node];
        int64_t slot = node * vcs + vc;
        if (n->src_credits[slot] <= 0)
            continue;
        n->src_credits[slot] -= 1;
        int64_t sent = n->cur_sent[node];
        push_flit(n, node * pv + vc, lid, sent, attribute);  /* LOCAL = 0 */
        n->counters[SRC_BACKLOG] -= 1;
        n->counters[INJECTED_FLITS] += 1;
        if (n->multi)
            n->backlog_by_copy[copy] -= 1;
        if (sent == 0)
            heads[count++] = lid;
        n->cur_sent[node] = sent + 1;
        if (sent + 1 >= n->cur_len[node])
            cur_lid[node] = -1;
    }
    return count;
}

/* Phase B: VC allocation (engine.py: _vc_allocate).  Each round grants
 * every output port's round-robin champion the lowest free output VC;
 * rounds repeat until no champion can be granted. */
static void vc_allocate(fs_net *n, int64_t *va, int64_t count, int64_t cycle,
                        int attribute)
{
    const int64_t vcs = n->vcs, pv = n->ports * n->vcs;
    const int64_t *line_node = n->line_node, *out_group = n->out_group;
    int64_t *va_ptr = n->va_ptr, *best = n->scoreboard;
    while (count) {
        for (int64_t i = 0; i < count; i++) {
            int64_t line = va[i], group = out_group[line];
            int64_t prio = line - line_node[line] * pv - va_ptr[group];
            if (prio < 0)
                prio += pv;
            if (prio < best[group])
                best[group] = prio;
        }
        /* A group's pointer moves only at its champion, after which
         * best[group] is reset: later requesters never match again. */
        int64_t kept = 0, granted = 0;
        for (int64_t i = 0; i < count; i++) {
            int64_t line = va[i], group = out_group[line];
            int64_t lane = line - line_node[line] * pv;
            int64_t prio = lane - va_ptr[group];
            if (prio < 0)
                prio += pv;
            if (prio == best[group]) {
                best[group] = NO_REQUEST;
                int64_t *row = n->owner + group * vcs;
                int64_t vc = 0;
                while (vc < vcs && row[vc] >= 0)
                    vc++;
                if (vc < vcs) {
                    row[vc] = line;
                    n->out_line[line] = group * vcs + vc;
                    n->out_vc[line] = vc;
                    n->state[line] = ACTIVE;
                    n->ready[line] = cycle + n->va_latency;
                    va_ptr[group] = lane + 1 == pv ? 0 : lane + 1;
                    n->counters[VC_ALLOCS] += 1;
                    if (attribute)
                        tally(n, copy_of(n, line), VC_ALLOCS);
                    granted++;
                    continue;
                }
            }
            va[kept++] = line;
        }
        if (!granted)
            break;
        count = kept;
    }
}

/* The arbiter group and the lane within it of a switch-allocation
 * candidate: an input port and its VC, or an output port and the
 * input port asking for it. */
static inline void arbiter_of(const fs_net *n, int64_t line,
                              int output_stage, int64_t *group,
                              int64_t *lane)
{
    int64_t port = n->line_port[line];
    int64_t in_group = n->line_node[line] * n->ports + port;
    *group = output_stage ? n->out_group[line] : in_group;
    *lane = output_stage ? port : line - in_group * n->vcs;
}

/* One round-robin switch-allocation stage (engine.py: _arbitrate):
 * keeps each group's champion, in order, and advances the pointer of
 * every group that had two or more candidates.  Returns the number of
 * candidates kept. */
static int64_t arbitrate(fs_net *n, int64_t *cand, int64_t count,
                         int output_stage)
{
    const int64_t size = output_stage ? n->ports : n->vcs;
    int64_t *ptr = output_stage ? n->sa_out_ptr : n->sa_in_ptr;
    int64_t *best = n->scoreboard, *seen = n->group_counts;
    int64_t group, lane;
    for (int64_t i = 0; i < count; i++) {
        arbiter_of(n, cand[i], output_stage, &group, &lane);
        int64_t prio = lane - ptr[group];
        if (prio < 0)
            prio += size;
        if (prio < best[group])
            best[group] = prio;
        seen[group] += 1;
    }
    /* As in vc_allocate: past its champion a group never matches. */
    int64_t kept = 0;
    for (int64_t i = 0; i < count; i++) {
        arbiter_of(n, cand[i], output_stage, &group, &lane);
        int64_t prio = lane - ptr[group];
        if (prio < 0)
            prio += size;
        if (prio != best[group])
            continue;
        if (seen[group] >= 2)
            ptr[group] = lane + 1 == size ? 0 : lane + 1;
        best[group] = NO_REQUEST;
        seen[group] = 0;
        cand[kept++] = cand[i];
    }
    return kept;
}

/* A tail ejected: write its packet's record and log the delivery
 * (engine.py: _log_deliveries). */
static void deliver(fs_net *n, int64_t pid, int64_t copy, int64_t cycle)
{
    n->pkt_ejected_cycle[pid] = cycle;
    n->pkt_ejected_ns[pid] = n->time_by_copy[copy];
    n->delivery_log[n->counters[LOGGED_DELIVERIES]++] = pid;
    n->measured_delivered_by_copy[copy] += n->pkt_measured[pid];
}

/* Phase D: the winners traverse switch and link (engine.py: _send). */
static void send(fs_net *n, const int64_t *win, int64_t count,
                 int64_t cycle, int attribute)
{
    const int64_t vcs = n->vcs, ports = n->ports, depth = n->depth;
    const int64_t groups = n->nodes * ports;
    const int64_t *line_node = n->line_node, *line_port = n->line_port;
    const int64_t *link_base = n->link_base;
    int64_t fslot = (cycle + n->link_latency) % n->flit_horizon;
    int64_t cslot = (cycle + n->credit_latency) % n->credit_horizon;
    int64_t *flit_line = n->flit_line + fslot * groups;
    int64_t *flit_pid = n->flit_pid + fslot * groups;
    int64_t *flit_fidx = n->flit_fidx + fslot * groups;
    int64_t *credit_line = n->credit_line + cslot * groups;
    int64_t *credit_src = n->credit_src + cslot * n->nodes;
    int64_t sent = 0, routed = 0, sourced = 0, ejected = 0;

    for (int64_t i = 0; i < count; i++) {
        int64_t line = win[i], out = n->out_line[line];
        int64_t node = line_node[line], port = line_port[line];
        int64_t in_group = node * ports + port;
        int64_t vc = line - in_group * vcs;
        int64_t front = n->fifo_head[line];
        int64_t pid = n->buf_pid[line * depth + front];
        int64_t fidx = n->buf_fidx[line * depth + front];
        int64_t copy = n->multi ? copy_of(n, line) : 0;
        n->fifo_head[line] = front + 1 == depth ? 0 : front + 1;
        n->fifo_len[line] -= 1;
        if (attribute) {
            tally(n, copy, BUFFER_READS);
            tally(n, copy, XBAR_TRAVERSALS);
            tally(n, copy, SA_GRANTS);
            tally(n, copy, CREDIT_TRANSFERS);
        }
        if (fidx == 0)
            n->pkt_hops[pid] += 1;
        int tail = fidx == n->pkt_len[pid] - 1;

        if (n->out_port[line] == LOCAL) {
            /* Ejection: the sink consumes the flit; no credit needed. */
            ejected++;
            if (n->multi)
                n->ejected_by_copy[copy] += 1;
            if (tail)
                deliver(n, pid, copy, cycle);
        } else {
            n->credits[out] -= 1;
            flit_line[sent] = link_base[n->out_group[line]] + n->out_vc[line];
            flit_pid[sent] = pid;
            flit_fidx[sent] = fidx;
            sent++;
            if (attribute)
                tally(n, copy, LINK_FLITS);
        }

        /* Return a credit upstream for the freed buffer slot; local
         * input ports credit the source-side mirror instead. */
        if (port == LOCAL)
            credit_src[sourced++] = node * vcs + vc;
        else
            credit_line[routed++] = link_base[in_group] + vc;

        if (tail) {
            n->owner[out] = -1;
            n->state[line] = IDLE;
        }
    }
    n->flit_count[fslot] = sent;
    n->credit_count[cslot] = routed;
    n->credit_src_count[cslot] = sourced;
    n->counters[BUFFERED] -= count;
    n->counters[BUFFER_READS] += count;
    n->counters[XBAR_TRAVERSALS] += count;
    n->counters[SA_GRANTS] += count;
    n->counters[CREDIT_TRANSFERS] += count;
    n->counters[EJECTED_FLITS] += ejected;
    n->counters[IN_LINK] += sent;
    n->counters[LINK_FLITS] += sent;
}

/* One cycle of every router's pipeline (engine.py: _step_routers). */
static void step_routers(fs_net *n, int64_t cycle, int attribute)
{
    const int64_t lines = n->lines, depth = n->depth;
    const int16_t *fifo_len = n->fifo_len;
    const int64_t *ready = n->ready, *credits = n->credits;
    const int64_t *out_line = n->out_line;
    int8_t *state = n->state;
    /* Scratch: the VA requesters, then the busy lines, which the scan
     * below overwrites with the SA candidates behind its read cursor. */
    int64_t *va = n->scratch, *act = n->scratch + lines, *busy = act;
    int64_t num_va = 0, num_act = 0, num_busy = 0;

    /* Phase A (per-VC state advance) and the SA candidates, in one
     * ascending pass over the lines that hold flits, listed first
     * without branches.  Candidates are collected before VA grants: a
     * VC granted an output VC this cycle cannot also win the switch
     * this cycle. */
    for (int64_t line = 0; line < lines; line++) {
        busy[num_busy] = line;
        num_busy += fifo_len[line] != 0;
    }
    for (int64_t i = 0; i < num_busy; i++) {
        int64_t line = busy[i];
        switch (state[line]) {
        case ACTIVE:
            if (ready[line] <= cycle && credits[out_line[line]] > 0)
                act[num_act++] = line;
            break;
        case VC_ALLOC:
            va[num_va++] = line;
            break;
        case ROUTING:
            if (ready[line] <= cycle) {
                state[line] = VC_ALLOC;
                va[num_va++] = line;
            }
            break;
        default: {  /* IDLE: route the head flit */
            int64_t node = n->line_node[line];
            int64_t pid = n->buf_pid[line * depth + n->fifo_head[line]];
            int64_t port = n->route[node * n->local_nodes + n->pkt_dst[pid]];
            n->out_port[line] = port;
            n->out_group[line] = node * n->ports + port;
            if (n->route_latency) {
                n->ready[line] = cycle + n->route_latency;
                state[line] = ROUTING;
            } else {
                /* Zero-latency route computation: straight to VC_ALLOC. */
                state[line] = VC_ALLOC;
                va[num_va++] = line;
            }
        }
        }
    }

    if (num_va)
        vc_allocate(n, va, num_va, cycle, attribute);
    if (!num_act)
        return;
    /* Phase C: separable input-first switch allocation. */
    if (num_act > 1)
        num_act = arbitrate(n, act, num_act, 0);
    if (num_act > 1)
        num_act = arbitrate(n, act, num_act, 1);
    send(n, act, num_act, cycle, attribute);
}

/* NumPy's Generator.integers(0, rng + 1) for 0 < rng < 2**32 - 1:
 * buffered_bounded_lemire_uint32 of numpy/random/src/distributions,
 * whose 32-bit draws take no buffer. */
static uint32_t bounded_uint32(void *state, next_uint32_fn next,
                               uint32_t rng)
{
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)next(state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)next(state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* The rate factor of `copy`'s step table at node cycle `node_cycle`
 * (PiecewiseRateTraffic.rate_factors).  Node cycles only grow, so a
 * cursor replaces the search. */
static double factor_at(fs_net *n, int64_t copy, int64_t node_cycle)
{
    int64_t pos = n->step_pos[copy], last = n->step_first[copy + 1] - 1;
    while (pos < last && n->step_cycles[pos + 1] <= node_cycle)
        pos++;
    n->step_pos[copy] = pos;
    return n->step_factors[pos];
}

/* Draw the arrivals of `copy`'s node cycles elapsed by its clock and
 * queue them, exactly as one InjectionProcess.arrivals(k) call on the
 * replica's generator: first all k * nodes Bernoulli trials, row-major
 * (node cycle, then node), then one destination per hit in the same
 * order.  How many node cycles one call covers depends on the network
 * clock (1 per network cycle at Fmax, up to 3 at Fmin), so the
 * arrival sequence does too.  Returns -1 if the store is too small. */
static int draw_arrivals(fs_net *n, int64_t copy, int64_t cycle,
                         int measuring)
{
    int64_t completed = (int64_t)(n->time_by_copy[copy] / n->node_period
                                  + 1e-9);
    int64_t start = n->next_node_cycle[copy];
    int64_t cycles = completed + 1 - start;
    if (cycles <= 0)
        return 0;
    n->next_node_cycle[copy] = completed + 1;
    const int64_t local = n->local_nodes, base = copy * local;
    int64_t first = n->counters[STORED_PACKETS], lid = first;
    if (first + cycles * local > n->capacity)
        return -1;
    void *state = n->rng_state[copy];
    next_double_fn next_double = n->rng_double[copy];
    const double *prob = n->pkt_prob + base;
    int steps = n->step_first[copy + 1] > n->step_first[copy];
    for (int64_t k = 0; k < cycles; k++) {
        int64_t node_cycle = start + k;
        double factor = steps ? factor_at(n, copy, node_cycle) : 1.0;
        for (int64_t src = 0; src < local; src++) {
            double u = next_double(state);
            if (!(steps ? u < factor * prob[src] : u < prob[src]))
                continue;
            /* pkt_dst holds the source until its destination is drawn. */
            n->pkt_dst[lid] = src;
            n->pkt_created_cycle[lid] = cycle;
            n->pkt_created_ns[lid] = (double)node_cycle * n->node_period;
            lid++;
        }
    }

    /* Destinations, then the records and the source FIFOs. */
    int uniform = n->law_by_copy[copy] == LAW_UNIFORM;
    uint32_t rng = (uint32_t)(local - 2);   /* integers(0, local - 1) */
    next_uint32_fn next_uint32 = n->rng_uint32[copy];
    for (int64_t pid = first; pid < lid; pid++) {
        int64_t src = n->pkt_dst[pid], dst;
        if (uniform) {
            /* NumPy draws nothing for an empty range (2 nodes). */
            dst = rng ? (int64_t)bounded_uint32(state, next_uint32, rng) : 0;
            if (dst >= src)
                dst++;
        } else {
            dst = n->dest_table[base + src];
        }
        int64_t node = base + src;
        n->pkt_dst[pid] = dst;
        n->pkt_len[pid] = n->packet_length;
        n->pkt_copy[pid] = copy;
        n->pkt_measured[pid] = (int8_t)measuring;
        int64_t tail = n->q_tail[node];
        if (tail < 0)
            n->q_head[node] = pid;
        else
            n->pkt_next[tail] = pid;
        n->q_tail[node] = pid;
    }
    int64_t added = lid - first;
    n->counters[STORED_PACKETS] = lid;
    n->counters[QUEUED_PACKETS] += added;
    n->counters[SRC_BACKLOG] += added * n->packet_length;
    if (n->multi)
        n->backlog_by_copy[copy] += added * n->packet_length;
    n->measured_created_by_copy[copy] += measuring ? added : 0;
    return 0;
}

/* Advance the whole mesh by one cycle: draw the arrivals of every
 * replica whose law compiles, step the calendars, sources and
 * routers, and advance each replica's clock by its period.
 * `attribute_activity` mirrors FastNetwork.attribute_activity and
 * `measuring` tags new packets as measured.  Returns the number of
 * injected head packet ids written to `heads`, or -1, leaving the
 * cycle unfinished, when the packet store is too small for the
 * arrivals (FastNetwork.step_cycle grows it beforehand). */
int64_t fs_step(fs_net *n, int64_t cycle, int32_t attribute_activity,
                int32_t measuring)
{
    int attribute = n->multi && attribute_activity;
    int64_t groups = n->nodes * n->ports;
    int64_t heads = 0;

    for (int64_t copy = 0; copy < n->copies; copy++)
        if (n->law_by_copy[copy] != LAW_NONE
                && draw_arrivals(n, copy, cycle, measuring) < 0)
            return -1;

    int64_t cslot = cycle % n->credit_horizon;
    for (int64_t i = 0; i < n->credit_count[cslot]; i++)
        n->credits[n->credit_line[cslot * groups + i]] += 1;
    for (int64_t i = 0; i < n->credit_src_count[cslot]; i++)
        n->src_credits[n->credit_src[cslot * n->nodes + i]] += 1;
    n->credit_count[cslot] = 0;
    n->credit_src_count[cslot] = 0;

    int64_t fslot = cycle % n->flit_horizon;
    int64_t arriving = n->flit_count[fslot];
    for (int64_t i = 0; i < arriving; i++)
        push_flit(n, n->flit_line[fslot * groups + i],
                  n->flit_pid[fslot * groups + i],
                  n->flit_fidx[fslot * groups + i], attribute);
    n->counters[IN_LINK] -= arriving;
    n->flit_count[fslot] = 0;

    if (n->counters[SRC_BACKLOG])
        heads = step_sources(n, attribute, n->heads);
    if (n->counters[BUFFERED])
        step_routers(n, cycle, attribute);
    for (int64_t copy = 0; copy < n->copies; copy++)
        n->time_by_copy[copy] += n->period_by_copy[copy];
    return heads;
}

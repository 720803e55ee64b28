/*
 * The fast engine's cycle step, compiled.
 *
 * fs_run() advances every source and router of a FastNetwork cycle by
 * cycle, in place on the engine's NumPy arrays, until the simulation
 * loop (repro.noc.simulator.drive) has work to do.  Its cycle step,
 * step(), draws every replica's arrivals first, then runs each
 * replica's whole cycle (its calendar entries, its sources, its
 * routers) before the next replica's.  Within a replica it computes the
 * reference engine's flit-level schedule (repro.noc.Network:
 * Router.step, Source.step): the same phase order, line-indexed
 * round-robin arbiters and credit/flit calendar timing, and replicas
 * share no state.  Its scans run in ascending line order, so a cycle's
 * deliveries are logged in that order rather than the reference's
 * router order.  Switch allocation's input stage runs inside the
 * busy-line scan, ahead of VC allocation, which touches none of its
 * state (step_routers).
 *
 * Replica by replica is the same order for everything the replicas do
 * share.  Packet ids are allocated in replica order, because every
 * draw comes before any router step.  Logged deliveries come out in
 * ascending line order.  And every
 * calendar slot holds its entries grouped by replica, in ascending
 * replica order: send() appends a replica's flits and credits after
 * the previous replicas', and each entry addresses a line of the
 * sender's replica (freeze_copy keeps that order when it filters).  So
 * a replica's entries are one contiguous run of the slot, which the
 * step walks with a cursor.  Link and credit latencies are at least
 * one cycle, so no slot is read and appended to in the same cycle.
 *
 * busy_bits holds one bit per VC line, set while the line's FIFO holds
 * a flit: push_flit sets it and send clears it when the FIFO empties
 * (FastNetwork.freeze_copy clears a retired replica's).  The busy-line
 * scan lists a replica's lines from these bits, so it visits only the
 * lines that hold flits.
 *
 * Packets live in the packet store, one record per packet id: created
 * and ejected cycle and ns, measured flag and replica beside the
 * routing fields.  A replica whose arrival law compiles (law_by_copy)
 * has its arrivals drawn here, from its own NumPy generator, and
 * appended to the store and its source FIFOs; every tail ejection
 * writes its record and appends the packet id to the delivery log.
 *
 * The hot loops avoid integer division: a line's node and port come
 * from the line_node/line_port tables, and its VC from
 * line - (node * ports + port) * vcs.  Per-line, per-arbiter, calendar
 * and scratch arrays are int32 (FastNetwork keeps cycles, line and
 * buffer indices and packet ids within its range); counters, tallies,
 * sources and the packet store are int64, and busy_bits uint64.
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
#define NO_REQUEST ((int32_t)1 << 30)

/* counters[]: the activity totals in ACTIVITY_FIELDS order, then the
 * flit accounting (kernel.py's COUNTERS). */
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
    int32_t *route, *link_base, *line_node, *line_port;
    /* per VC line */
    int8_t *state;
    int16_t *fifo_len;
    uint64_t *busy_bits;
    int32_t *fifo_head, *buf_pid, *buf_fidx, *out_port, *out_vc, *out_group;
    int32_t *out_line, *ready, *credits, *owner;
    /* per (node, port) arbiter */
    int32_t *va_ptr, *sa_in_ptr, *sa_out_ptr, *scoreboard, *group_counts;
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
    int32_t *flit_line, *flit_pid, *flit_fidx;
    int64_t *flit_count;
    int32_t *credit_line;
    int64_t *credit_count;
    int32_t *credit_src;
    int64_t *credit_src_count;
    /* scratch for one replica's lines */
    int32_t *scratch;
} fs_net;

int64_t fs_layout_size(void)
{
    return (int64_t)sizeof(fs_net);
}

/* Add `count` to one per-replica activity tally. */
static inline void tally(fs_net *n, int64_t copy, int field, int64_t count)
{
    n->activity_by_copy[copy * NUM_ACTIVITY + field] += count;
}

/* Buffer one arriving flit at the tail of its line's FIFO (the credit
 * protocol guarantees room, so head + len < 2 * depth) and mark the
 * line busy; the caller accounts the writes with buffered(). */
static inline void push_flit(fs_net *n, int64_t line, int32_t pid,
                             int32_t fidx)
{
    int64_t pos = n->fifo_head[line] + n->fifo_len[line];
    if (pos >= n->depth)
        pos -= n->depth;
    pos += line * n->depth;
    n->buf_pid[pos] = pid;
    n->buf_fidx[pos] = fidx;
    n->fifo_len[line] += 1;
    n->busy_bits[line >> 6] |= (uint64_t)1 << (line & 63);
}

/* Account `count` flits buffered in one replica's routers. */
static void buffered(fs_net *n, int64_t copy, int64_t count, int attribute)
{
    n->counters[BUFFERED] += count;
    n->counters[BUFFER_WRITES] += count;
    if (attribute)
        tally(n, copy, BUFFER_WRITES, count);
}

/* One replica's sources each try to inject one flit (the reference
 * Source.step). */
static void step_sources(fs_net *n, int64_t copy, int attribute)
{
    const int64_t vcs = n->vcs, pv = n->ports * n->vcs;
    const int64_t first = copy * n->local_nodes;
    const int64_t last = first + n->local_nodes;
    int64_t *cur_lid = n->cur_lid, *q_head = n->q_head;
    int64_t injected = 0;
    for (int64_t node = first; node < last; node++) {
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
        /* The node's local input port (LOCAL = 0), VC vc. */
        push_flit(n, node * pv + vc, (int32_t)lid, (int32_t)sent);
        injected++;
        n->cur_sent[node] = sent + 1;
        if (sent + 1 >= n->cur_len[node])
            cur_lid[node] = -1;
    }
    buffered(n, copy, injected, attribute);
    n->counters[SRC_BACKLOG] -= injected;
    n->counters[INJECTED_FLITS] += injected;
    if (n->multi)
        n->backlog_by_copy[copy] -= injected;
}

/* Phase B: VC allocation.  Each round grants every output port's
 * round-robin champion the lowest free output VC; rounds repeat until
 * no champion can be granted. */
static void vc_allocate(fs_net *n, int32_t *va, int64_t count, int64_t copy,
                        int64_t cycle, int attribute)
{
    const int64_t vcs = n->vcs, pv = n->ports * n->vcs;
    const int32_t *line_node = n->line_node, *out_group = n->out_group;
    int32_t *va_ptr = n->va_ptr, *best = n->scoreboard;
    int64_t allocs = 0;
    while (count) {
        for (int64_t i = 0; i < count; i++) {
            int64_t line = va[i], group = out_group[line];
            int64_t prio = line - line_node[line] * pv - va_ptr[group];
            if (prio < 0)
                prio += pv;
            if (prio < best[group])
                best[group] = (int32_t)prio;
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
                int32_t *row = n->owner + group * vcs;
                int64_t vc = 0;
                while (vc < vcs && row[vc] >= 0)
                    vc++;
                if (vc < vcs) {
                    row[vc] = (int32_t)line;
                    n->out_line[line] = (int32_t)(group * vcs + vc);
                    n->out_vc[line] = (int32_t)vc;
                    n->state[line] = ACTIVE;
                    n->ready[line] = (int32_t)(cycle + n->va_latency);
                    va_ptr[group] = lane + 1 == pv ? 0 : (int32_t)(lane + 1);
                    granted++;
                    continue;
                }
            }
            va[kept++] = (int32_t)line;
        }
        if (!granted)
            break;
        allocs += granted;
        count = kept;
    }
    n->counters[VC_ALLOCS] += allocs;
    if (attribute)
        tally(n, copy, VC_ALLOCS, allocs);
}

/* An input port's switch-allocation champion: appended to the
 * candidates, and past it the port's pointer moves, but only if two or
 * more of its VCs competed (a lone candidate never moves a pointer). */
static inline int64_t keep_input_champion(fs_net *n, int32_t *act,
                                          int64_t count, int64_t port,
                                          int64_t champ, int64_t rivals)
{
    act[count] = (int32_t)champ;
    if (rivals >= 2) {
        int64_t next = champ - port * n->vcs + 1;
        n->sa_in_ptr[port] = next == n->vcs ? 0 : (int32_t)next;
    }
    return count + 1;
}

/* The output stage of switch allocation: keeps each output port's
 * round-robin champion among the input champions, in order, and
 * advances the pointer of every output port that had two or more.
 * Returns the number of candidates kept. */
static int64_t arbitrate_outputs(fs_net *n, int32_t *cand, int64_t count)
{
    const int64_t ports = n->ports;
    const int32_t *out_group = n->out_group, *line_port = n->line_port;
    int32_t *ptr = n->sa_out_ptr, *best = n->scoreboard;
    int32_t *seen = n->group_counts;
    for (int64_t i = 0; i < count; i++) {
        int64_t line = cand[i], group = out_group[line];
        int64_t prio = line_port[line] - ptr[group];
        if (prio < 0)
            prio += ports;
        if (prio < best[group])
            best[group] = (int32_t)prio;
        seen[group] += 1;
    }
    /* Pointers move only now that every priority is known; as in
     * vc_allocate, past its champion a group never matches. */
    int64_t kept = 0;
    for (int64_t i = 0; i < count; i++) {
        int64_t line = cand[i], group = out_group[line];
        int64_t lane = line_port[line];
        int64_t prio = lane - ptr[group];
        if (prio < 0)
            prio += ports;
        if (prio != best[group])
            continue;
        if (seen[group] >= 2)
            ptr[group] = lane + 1 == ports ? 0 : (int32_t)(lane + 1);
        best[group] = NO_REQUEST;
        seen[group] = 0;
        cand[kept++] = (int32_t)line;
    }
    return kept;
}

/* A tail ejected: write its packet's record and log the delivery. */
static void deliver(fs_net *n, int64_t pid, int64_t copy, int64_t cycle)
{
    n->pkt_ejected_cycle[pid] = cycle;
    n->pkt_ejected_ns[pid] = n->time_by_copy[copy];
    n->delivery_log[n->counters[LOGGED_DELIVERIES]++] = pid;
    n->measured_delivered_by_copy[copy] += n->pkt_measured[pid];
}

/* Phase D: one replica's winners traverse switch and link (the
 * reference Router._send_flit).  Its flits and credits are appended to
 * the calendar slots after the previous replicas'. */
static void send(fs_net *n, const int32_t *win, int64_t count, int64_t copy,
                 int64_t cycle, int attribute)
{
    const int64_t vcs = n->vcs, ports = n->ports, depth = n->depth;
    const int64_t groups = n->nodes * ports;
    const int32_t *line_node = n->line_node, *line_port = n->line_port;
    const int32_t *link_base = n->link_base;
    int64_t fslot = (cycle + n->link_latency) % n->flit_horizon;
    int64_t cslot = (cycle + n->credit_latency) % n->credit_horizon;
    int64_t fill = fslot * groups + n->flit_count[fslot];
    int32_t *flit_line = n->flit_line + fill;
    int32_t *flit_pid = n->flit_pid + fill;
    int32_t *flit_fidx = n->flit_fidx + fill;
    int32_t *credit_line = n->credit_line + cslot * groups
        + n->credit_count[cslot];
    int32_t *credit_src = n->credit_src + cslot * n->nodes
        + n->credit_src_count[cslot];
    int64_t sent = 0, routed = 0, sourced = 0, ejected = 0;

    for (int64_t i = 0; i < count; i++) {
        int64_t line = win[i], out = n->out_line[line];
        int64_t node = line_node[line], port = line_port[line];
        int64_t in_group = node * ports + port;
        int64_t vc = line - in_group * vcs;
        int64_t front = n->fifo_head[line];
        int32_t pid = n->buf_pid[line * depth + front];
        int32_t fidx = n->buf_fidx[line * depth + front];
        n->fifo_head[line] = front + 1 == depth ? 0 : (int32_t)(front + 1);
        if (--n->fifo_len[line] == 0)
            n->busy_bits[line >> 6] &= ~((uint64_t)1 << (line & 63));
        if (fidx == 0)
            n->pkt_hops[pid] += 1;
        int tail = fidx == n->pkt_len[pid] - 1;

        if (n->out_port[line] == LOCAL) {
            /* Ejection: the sink consumes the flit; no credit needed. */
            ejected++;
            if (tail)
                deliver(n, pid, copy, cycle);
        } else {
            n->credits[out] -= 1;
            flit_line[sent] = link_base[n->out_group[line]] + n->out_vc[line];
            flit_pid[sent] = pid;
            flit_fidx[sent] = fidx;
            sent++;
        }

        /* Return a credit upstream for the freed buffer slot; local
         * input ports credit the source-side mirror instead. */
        if (port == LOCAL)
            credit_src[sourced++] = (int32_t)(node * vcs + vc);
        else
            credit_line[routed++] = (int32_t)(link_base[in_group] + vc);

        if (tail) {
            n->owner[out] = -1;
            n->state[line] = IDLE;
        }
    }
    n->flit_count[fslot] += sent;
    n->credit_count[cslot] += routed;
    n->credit_src_count[cslot] += sourced;
    n->counters[BUFFERED] -= count;
    n->counters[BUFFER_READS] += count;
    n->counters[XBAR_TRAVERSALS] += count;
    n->counters[SA_GRANTS] += count;
    n->counters[CREDIT_TRANSFERS] += count;
    n->counters[EJECTED_FLITS] += ejected;
    n->counters[IN_LINK] += sent;
    n->counters[LINK_FLITS] += sent;
    if (n->multi)
        n->ejected_by_copy[copy] += ejected;
    if (attribute) {
        tally(n, copy, BUFFER_READS, count);
        tally(n, copy, XBAR_TRAVERSALS, count);
        tally(n, copy, SA_GRANTS, count);
        tally(n, copy, CREDIT_TRANSFERS, count);
        tally(n, copy, LINK_FLITS, sent);
    }
}

/* List the busy lines in [first, end) in ascending order, from the
 * busy bits; the first and last words are masked to the range. */
static int64_t list_busy(const fs_net *n, int64_t first, int64_t end,
                         int32_t *busy)
{
    const int64_t head = first >> 6, tail = (end - 1) >> 6;
    int64_t count = 0;
    for (int64_t w = head; w <= tail; w++) {
        uint64_t word = n->busy_bits[w];
        if (w == head)
            word &= ~(uint64_t)0 << (first & 63);
        if (w == tail && (end & 63))
            word &= ((uint64_t)1 << (end & 63)) - 1;
        while (word) {
            busy[count++] = (int32_t)((w << 6) + __builtin_ctzll(word));
            word &= word - 1;
        }
    }
    return count;
}

/* One cycle of one replica's router pipelines (the reference
 * Router.step). */
static void step_routers(fs_net *n, int64_t copy, int64_t cycle,
                         int attribute)
{
    const int64_t span = n->lines_per_copy, first = copy * span;
    const int64_t vcs = n->vcs, ports = n->ports, depth = n->depth;
    const int32_t *ready = n->ready, *credits = n->credits;
    const int32_t *out_line = n->out_line, *sa_in_ptr = n->sa_in_ptr;
    int8_t *state = n->state;
    /* Scratch: the VA requesters, then the busy lines, which the scan
     * below overwrites with the SA candidates behind its read cursor. */
    int32_t *va = n->scratch, *act = n->scratch + span, *busy = act;
    int64_t num_va = 0, num_act = 0;
    /* The input port whose SA candidates the scan is meeting (an input
     * port's VC lines are consecutive), one past its last line, its
     * champion so far, that champion's rotated priority, and how many
     * candidates the port has had. */
    int64_t port = 0, port_end = 0, champ = 0, best = 0, rivals = 0;

    /* Phase A (per-VC state advance) and the input stage of switch
     * allocation, in one ascending pass over the lines that hold
     * flits, listed first.  SA candidates are collected before VA
     * grants: a VC granted an output VC this cycle cannot also win the
     * switch this cycle. */
    const int64_t num_busy = list_busy(n, first, first + span, busy);
    for (int64_t i = 0; i < num_busy; i++) {
        int64_t line = busy[i];
        switch (state[line]) {
        case ACTIVE: {
            if (ready[line] > cycle || credits[out_line[line]] <= 0)
                break;
            if (line >= port_end) {
                /* A new input port: the last one's champion is final. */
                if (rivals)
                    num_act = keep_input_champion(n, act, num_act, port,
                                                  champ, rivals);
                port = n->line_node[line] * ports + n->line_port[line];
                port_end = (port + 1) * vcs;
                best = vcs;
                rivals = 0;
            }
            int64_t prio = line - port * vcs - sa_in_ptr[port];
            if (prio < 0)
                prio += vcs;
            if (prio < best) {
                best = prio;
                champ = line;
            }
            rivals++;
            break;
        }
        case VC_ALLOC:
            va[num_va++] = (int32_t)line;
            break;
        case ROUTING:
            if (ready[line] <= cycle) {
                state[line] = VC_ALLOC;
                va[num_va++] = (int32_t)line;
            }
            break;
        default: {  /* IDLE: route the head flit */
            int64_t node = n->line_node[line];
            int64_t pid = n->buf_pid[line * depth + n->fifo_head[line]];
            int64_t out = n->route[node * n->local_nodes + n->pkt_dst[pid]];
            n->out_port[line] = (int32_t)out;
            n->out_group[line] = (int32_t)(node * ports + out);
            if (n->route_latency) {
                n->ready[line] = (int32_t)(cycle + n->route_latency);
                state[line] = ROUTING;
            } else {
                /* Zero-latency route computation: straight to VC_ALLOC. */
                state[line] = VC_ALLOC;
                va[num_va++] = (int32_t)line;
            }
        }
        }
    }
    if (rivals)
        num_act = keep_input_champion(n, act, num_act, port, champ, rivals);

    if (num_va)
        vc_allocate(n, va, num_va, copy, cycle, attribute);
    /* Phase C's output stage, then phase D. */
    if (num_act > 1)
        num_act = arbitrate_outputs(n, act, num_act);
    if (num_act)
        send(n, act, num_act, copy, cycle, attribute);
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
 * arrival sequence does too.  fs_run leaves the store room for them. */
static void draw_arrivals(fs_net *n, int64_t copy, int64_t cycle,
                          int measuring)
{
    int64_t completed = (int64_t)(n->time_by_copy[copy] / n->node_period
                                  + 1e-9);
    int64_t start = n->next_node_cycle[copy];
    int64_t cycles = completed + 1 - start;
    if (cycles <= 0)
        return;
    n->next_node_cycle[copy] = completed + 1;
    const int64_t local = n->local_nodes, base = copy * local;
    int64_t first = n->counters[STORED_PACKETS], lid = first;
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
}

/* The end of one replica's run of a calendar slot's entries, from
 * `pos`: the entries below `bound` (see the header). */
static inline int64_t run_end(const int32_t *entries, int64_t pos,
                              int64_t count, int64_t bound)
{
    while (pos < count && entries[pos] < bound)
        pos++;
    return pos;
}

/* Advance the whole mesh by one cycle: draw the arrivals of every
 * replica whose law compiles, then, replica by replica, apply its
 * calendar entries due this cycle, step its sources and routers and
 * advance its clock by its period.  `attribute` tallies activity per
 * replica and `measuring` tags new packets as measured. */
static void step(fs_net *n, int64_t cycle, int attribute, int measuring)
{
    const int64_t groups = n->nodes * n->ports, span = n->lines_per_copy;
    const int64_t slots_per_copy = n->local_nodes * n->vcs;

    for (int64_t copy = 0; copy < n->copies; copy++)
        if (n->law_by_copy[copy] != LAW_NONE)
            draw_arrivals(n, copy, cycle, measuring);

    /* This cycle's calendar slots, and each one's read cursor. */
    const int64_t cslot = cycle % n->credit_horizon;
    const int64_t fslot = cycle % n->flit_horizon;
    const int32_t *credit_line = n->credit_line + cslot * groups;
    const int32_t *credit_src = n->credit_src + cslot * n->nodes;
    const int32_t *flit_line = n->flit_line + fslot * groups;
    const int32_t *flit_pid = n->flit_pid + fslot * groups;
    const int32_t *flit_fidx = n->flit_fidx + fslot * groups;
    const int64_t credits = n->credit_count[cslot];
    const int64_t src_credits = n->credit_src_count[cslot];
    const int64_t flits = n->flit_count[fslot];
    int64_t credit_pos = 0, src_pos = 0, flit_pos = 0;

    for (int64_t copy = 0; copy < n->copies; copy++) {
        int64_t end = run_end(credit_line, credit_pos, credits,
                              (copy + 1) * span);
        for (; credit_pos < end; credit_pos++)
            n->credits[credit_line[credit_pos]] += 1;
        end = run_end(credit_src, src_pos, src_credits,
                      (copy + 1) * slots_per_copy);
        for (; src_pos < end; src_pos++)
            n->src_credits[credit_src[src_pos]] += 1;
        end = run_end(flit_line, flit_pos, flits, (copy + 1) * span);
        buffered(n, copy, end - flit_pos, attribute);
        n->counters[IN_LINK] -= end - flit_pos;
        for (; flit_pos < end; flit_pos++)
            push_flit(n, flit_line[flit_pos], flit_pid[flit_pos],
                      flit_fidx[flit_pos]);

        if (n->multi ? n->backlog_by_copy[copy] : n->counters[SRC_BACKLOG])
            step_sources(n, copy, attribute);
        if (n->counters[BUFFERED])
            step_routers(n, copy, cycle, attribute);
        n->time_by_copy[copy] += n->period_by_copy[copy];
    }
    n->credit_count[cslot] = 0;
    n->credit_src_count[cslot] = 0;
    n->flit_count[fslot] = 0;
}

/* How many replicas have all their measured packets delivered. */
static int64_t completed(const fs_net *n)
{
    int64_t count = 0;
    for (int64_t copy = 0; copy < n->copies; copy++)
        count += n->measured_delivered_by_copy[copy]
            >= n->measured_created_by_copy[copy];
    return count;
}

/* Step cycles `cycle`, `cycle` + 1, ... toward `stop` and return the
 * next cycle to step.  Before each cycle it returns early when replica
 * 0's time is at or past `stop_ns` (the next control instant), or when
 * the packet store has fewer than `headroom` free records (the most
 * one cycle's compiled draws add; FastNetwork grows the store and
 * calls again).  With `until_done` it also returns after any cycle that
 * leaves more replicas with all their measured packets delivered than
 * there were at the call.  `attribute_activity` mirrors
 * FastNetwork.attribute_activity and `measuring` tags new packets as
 * measured. */
int64_t fs_run(fs_net *n, int64_t cycle, int64_t stop, double stop_ns,
               int64_t headroom, int32_t attribute_activity,
               int32_t measuring, int32_t until_done)
{
    const int attribute = n->multi && attribute_activity;
    const int64_t done = until_done ? completed(n) : 0;
    while (cycle < stop && n->time_by_copy[0] < stop_ns
           && n->counters[STORED_PACKETS] + headroom <= n->capacity) {
        step(n, cycle++, attribute, measuring);
        if (until_done && completed(n) > done)
            break;
    }
    return cycle;
}

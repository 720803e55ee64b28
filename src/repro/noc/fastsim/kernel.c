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
 * Packet objects and statistics stay in Python: the step reports the
 * packet ids of the heads it injected and the tails it delivered in
 * `events`, and its return value says how many of each there are.
 *
 * The hot loops avoid integer division: a line's node and port come
 * from the line_node/line_port tables, and its VC from
 * line - (node * ports + port) * vcs.
 *
 * fs_net mirrors kernel.py's SCALARS and ARRAYS, field for field.
 */
#include <stdint.h>

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
    INJECTED_FLITS, EJECTED_FLITS
};

typedef struct {
    /* geometry and timing */
    int64_t nodes, local_nodes, ports, vcs, depth, lines, lines_per_copy;
    int64_t route_latency, va_latency, link_latency, credit_latency;
    int64_t flit_horizon, credit_horizon, multi;
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
    /* packet store */
    int64_t *pkt_dst, *pkt_len, *pkt_hops, *pkt_next;
    /* calendars: one slot of nodes * ports entries per future cycle */
    int64_t *flit_line, *flit_pid, *flit_fidx, *flit_count;
    int64_t *credit_line, *credit_count, *credit_src, *credit_src_count;
    /* outputs and scratch */
    int64_t *events, *scratch;
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

/* Phase D: the winners traverse switch and link (engine.py: _send).
 * Writes delivered tail packet ids to tails[0..] and their hop counts
 * to tails[nodes..]; returns their count. */
static int64_t send(fs_net *n, const int64_t *win, int64_t count,
                    int64_t cycle, int attribute, int64_t *tails)
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
    int64_t sent = 0, routed = 0, sourced = 0, ejected = 0, done = 0;

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
            if (tail) {
                tails[done] = pid;
                tails[n->nodes + done] = n->pkt_hops[pid];
                done++;
            }
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
    return done;
}

/* One cycle of every router's pipeline (engine.py: _step_routers).
 * Returns the number of delivered tails written to `tails`. */
static int64_t step_routers(fs_net *n, int64_t cycle, int attribute,
                            int64_t *tails)
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
        return 0;
    /* Phase C: separable input-first switch allocation. */
    if (num_act > 1)
        num_act = arbitrate(n, act, num_act, 0);
    if (num_act > 1)
        num_act = arbitrate(n, act, num_act, 1);
    return send(n, act, num_act, cycle, attribute, tails);
}

/* Advance the whole mesh by one cycle.  `attribute_activity` mirrors
 * FastNetwork.attribute_activity.  Returns the number of injected
 * heads (low 32 bits) and delivered tails (high 32 bits) written to
 * `events`: heads at [0, nodes), tails at [nodes, 2*nodes) with their
 * hop counts at [2*nodes, 3*nodes). */
int64_t fs_step(fs_net *n, int64_t cycle, int32_t attribute_activity)
{
    int attribute = n->multi && attribute_activity;
    int64_t groups = n->nodes * n->ports;
    int64_t heads = 0, tails = 0;

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
        heads = step_sources(n, attribute, n->events);
    if (n->counters[BUFFERED])
        tails = step_routers(n, cycle, attribute, n->events + n->nodes);
    return heads | (tails << 32);
}

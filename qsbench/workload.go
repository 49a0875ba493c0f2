package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/experiments"
	"qsmpi/internal/mpi"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// Workload shapes. The sizes follow the latency/bandwidth method of the
// MPICH2-over-InfiniBand paper (log-spaced message sizes across the eager
// and rendezvous protocols) and the collective-scaling method of the
// NIC-based barrier paper (small-operand collectives at a large rank count).
const (
	ppMaxSize   = 1 << 20 // pingpong sizes span 0 B .. 1 MiB
	a2aRanks    = 16
	a2aMaxSize  = 64 << 10 // alltoall round sizes span 1 B .. 64 KiB
	collRanks   = 1024
	collOperand = 8 // Allreduce and Bcast operand bytes
)

// defaultOps is the number of operations one trial runs per workload,
// sized so that one trial takes about a second of host time and every
// per-trial sample set supports a tail percentile (see tailPercentile).
var defaultOps = map[string]int{
	"pingpong":    3000,
	"alltoall":    200,
	"collectives": 30,
}

// workloadNames lists the workloads in the order they are documented.
var workloadNames = []string{"pingpong", "alltoall", "collectives"}

type opKind uint8

const (
	opPingPong opKind = iota
	opExchange
	opBarrier
	opAllreduce
	opBcast
)

var opKindNames = [...]string{"pingpong", "exchange", "barrier", "allreduce", "bcast"}

func (k opKind) String() string { return opKindNames[k] }

// op is one generated operation.
type op struct {
	kind opKind
	size int // payload bytes per message (pingpong, exchange)
	root int // Bcast root
}

// workload is one generated input set: the benchmark derives everything a
// trial sends from seed, so the same seed always runs the same operations.
type workload struct {
	name  string
	seed  int64
	ranks int
	ops   []op
	// block is the seeded byte pool every payload is a window of.
	block []byte
}

// generate builds a workload's operations from a seed. nops <= 0 takes
// the workload's default size.
func generate(name string, seed int64, nops int) (*workload, error) {
	def, ok := defaultOps[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if nops <= 0 {
		nops = def
	}
	rng := rand.New(rand.NewSource(mix(seed, 0x5eed)))
	w := &workload{name: name, seed: seed, ops: make([]op, nops)}
	switch name {
	case "pingpong":
		w.ranks = 2
		for i, s := range logSizes(rng, nops, 0, ppMaxSize) {
			w.ops[i] = op{kind: opPingPong, size: s}
		}
	case "alltoall":
		w.ranks = a2aRanks
		for i, s := range logSizes(rng, nops, 1, a2aMaxSize) {
			w.ops[i] = op{kind: opExchange, size: s}
		}
	case "collectives":
		w.ranks = collRanks
		// Stratified like the sizes: every block of three ops holds one
		// of each kind in a seeded order, so the kind mix, and so the
		// per-op time distribution, stays nearly the same for every seed.
		kinds := []opKind{opBarrier, opAllreduce, opBcast}
		for b := 0; b < nops; b += len(kinds) {
			for j, k := range rng.Perm(len(kinds)) {
				if b+j < nops {
					w.ops[b+j] = op{kind: kinds[k], size: collOperand}
				}
			}
		}
		// Bcast roots are stratified the same way: one seeded root per
		// equal slice of the rank space, in a seeded order, so rank 0's
		// place in the broadcast trees is spread alike for every seed.
		var bcasts []int
		for i := range w.ops {
			if w.ops[i].kind == opBcast {
				bcasts = append(bcasts, i)
			}
		}
		for k, j := range rng.Perm(len(bcasts)) {
			lo, hi := k*collRanks/len(bcasts), (k+1)*collRanks/len(bcasts)
			w.ops[bcasts[j]].root = lo + rng.Intn(hi-lo)
		}
	}
	w.block = make([]byte, ppMaxSize+patternWindows)
	rng.Read(w.block)
	return w, nil
}

// logSizes draws n sizes log-uniformly from [lo, hi]: stratified, one
// draw per equal slice of the log range, then shuffled. Stratifying keeps
// the size distribution, and so the eager/rendezvous mix, nearly the same
// for every seed, while the seed still picks each size and the order.
func logSizes(rng *rand.Rand, n, lo, hi int) []int {
	span := math.Log2(float64(hi-lo) + 1)
	out := make([]int, n)
	for i := range out {
		u := (float64(i) + rng.Float64()) / float64(n)
		s := lo + int(math.Exp2(u*span)) - 1
		out[i] = min(max(s, lo), hi)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mix derives a well-spread 63-bit value from a seed and a tweak
// (splitmix64 finalizer).
func mix(seed int64, tweak uint64) int64 {
	z := uint64(seed) + tweak*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// patternWindows is the number of distinct payload offsets into the block.
const patternWindows = 1 << 16

// pattern is the payload op i carries from src to dst: a window of the
// seeded block at an offset derived from (seed, op, src, dst), so a
// payload delivered to the wrong request or rank differs from the
// expected one.
func (w *workload) pattern(i, src, dst, size int) []byte {
	off := uint64(mix(w.seed, uint64(i)<<32|uint64(src)<<16|uint64(dst))) % patternWindows
	return w.block[off : off+uint64(size)]
}

// spec is the cluster configuration each workload runs on; nic selects
// the NIC combine trees on the collectives workload.
func (w *workload) spec(nic bool) cluster.Spec {
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	switch w.name {
	case "alltoall":
		// Table 1's "One Thread" progress: a shared completion queue
		// drained by one progress thread.
		opts.CQ = ptlelan4.OneQueue
		opts.Threads = 1
		return cluster.Spec{Elan: &opts, Progress: pml.Threaded}
	case "collectives":
		return cluster.Spec{Elan: &opts, Progress: pml.Polling, Peers: experiments.CollPeers, HWColl: nic}
	}
	return cluster.Spec{Elan: &opts, Progress: pml.Polling}
}

// halves are the clusters one trial of a workload builds, by whether
// each uses the NIC combine trees.
func (w *workload) halves() []bool {
	if w.name == "collectives" {
		return []bool{false, true}
	}
	return []bool{false}
}

// payload is the number of payload bytes op i delivers, summed over
// every receiving rank.
func (w *workload) payload(i int) int64 {
	o, n := w.ops[i], int64(w.ranks)
	switch o.kind {
	case opPingPong:
		return 2 * int64(o.size)
	case opExchange:
		return n * (n - 1) * int64(o.size)
	case opAllreduce:
		return n * collOperand
	case opBcast:
		return (n - 1) * collOperand
	}
	return 0
}

// rankState is one rank's buffers and the operations it runs. prepare
// fills the send buffers, run performs the MPI calls and check verifies
// what arrived; on rank 0 only run is inside the timed window.
type rankState struct {
	w    *workload
	comm *mpi.Comm
	me   int
	send [][]byte
	recv [][]byte
	// order is the alltoall posting order scratch: 2(n-1) entries.
	order []int
	reqs  []*mpi.Request
}

// newRankState allocates rank me's buffers; the caller attaches the
// communicator once the rank runs.
func newRankState(w *workload, me int) *rankState {
	s := &rankState{w: w, me: me}
	bufs := func(count, size int) [][]byte {
		out := make([][]byte, count)
		for i := range out {
			out[i] = make([]byte, size)
			for j := 0; j < size; j += 4096 {
				out[i][j] = 1 // fault the pages in now, not inside a timed op
			}
		}
		return out
	}
	switch w.name {
	case "pingpong":
		s.send, s.recv = bufs(1, ppMaxSize), bufs(1, ppMaxSize)
	case "alltoall":
		s.send, s.recv = bufs(w.ranks, a2aMaxSize), bufs(w.ranks, a2aMaxSize)
		s.order = make([]int, 0, 2*(w.ranks-1))
		s.reqs = make([]*mpi.Request, 0, 2*(w.ranks-1))
	default:
		s.send, s.recv = bufs(1, collOperand), bufs(1, collOperand)
	}
	return s
}

// collValue is the seeded operand of collective op i.
func (w *workload) collValue(i int) uint64 {
	return uint64(mix(w.seed, 1<<40|uint64(i))) % (1 << 20)
}

func (s *rankState) prepare(i int) {
	o := s.w.ops[i]
	switch o.kind {
	case opPingPong:
		copy(s.send[0], s.w.pattern(i, s.me, 1-s.me, o.size))
	case opExchange:
		for d := 0; d < s.w.ranks; d++ {
			if d != s.me {
				copy(s.send[d], s.w.pattern(i, s.me, d, o.size))
			}
		}
	case opAllreduce:
		// Integer-valued float64 operands: the sum is exact in any
		// combining order, so it has a closed form.
		binary.LittleEndian.PutUint64(s.send[0], math.Float64bits(float64(s.w.collValue(i)+uint64(s.me))))
	case opBcast:
		v := uint64(0)
		if s.me == o.root {
			v = s.w.collValue(i)
		}
		binary.LittleEndian.PutUint64(s.recv[0], v)
	}
}

const (
	tagPing = 1
	tagPong = 2
)

func (s *rankState) run(i int) {
	o := s.w.ops[i]
	c := s.comm
	switch o.kind {
	case opPingPong:
		dt := datatype.Contiguous(o.size)
		if s.me == 0 {
			c.Send(1, tagPing, s.send[0][:o.size], dt)
			c.Recv(1, tagPong, s.recv[0][:o.size], dt)
		} else {
			c.Recv(0, tagPing, s.recv[0][:o.size], dt)
			c.Send(0, tagPong, s.send[0][:o.size], dt)
		}
	case opExchange:
		// Receives and sends are posted in a seeded per-rank order, so
		// some messages arrive before their receive (unexpected) and
		// some after, then the rank waits on all of its requests.
		n := s.w.ranks
		s.order = s.order[:0]
		for k := 0; k < 2*(n-1); k++ {
			s.order = append(s.order, k)
		}
		rng := rand.New(rand.NewSource(mix(s.w.seed, uint64(i)<<16|uint64(s.me))))
		rng.Shuffle(len(s.order), func(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] })
		dt := datatype.Contiguous(o.size)
		tag := i & 0x7fff
		s.reqs = s.reqs[:0]
		for _, k := range s.order {
			peer := (s.me + 1 + k%(n-1)) % n
			if k < n-1 {
				s.reqs = append(s.reqs, c.Irecv(peer, tag, s.recv[peer][:o.size], dt))
			} else {
				s.reqs = append(s.reqs, c.Isend(peer, tag, s.send[peer][:o.size], dt))
			}
		}
		mpi.Waitall(s.reqs...)
	case opBarrier:
		c.Barrier()
	case opAllreduce:
		c.Allreduce(s.send[0], s.recv[0], mpi.OpSumF64)
	case opBcast:
		c.Bcast(o.root, s.recv[0], datatype.Contiguous(collOperand))
	}
}

func (s *rankState) check(i int) bool {
	o := s.w.ops[i]
	switch o.kind {
	case opPingPong:
		return bytes.Equal(s.recv[0][:o.size], s.w.pattern(i, 1-s.me, s.me, o.size))
	case opExchange:
		for src := 0; src < s.w.ranks; src++ {
			if src != s.me && !bytes.Equal(s.recv[src][:o.size], s.w.pattern(i, src, s.me, o.size)) {
				return false
			}
		}
	case opAllreduce:
		n := uint64(s.w.ranks)
		want := float64(n*s.w.collValue(i) + n*(n-1)/2)
		return math.Float64frombits(binary.LittleEndian.Uint64(s.recv[0])) == want
	case opBcast:
		return binary.LittleEndian.Uint64(s.recv[0]) == s.w.collValue(i)
	}
	return true
}

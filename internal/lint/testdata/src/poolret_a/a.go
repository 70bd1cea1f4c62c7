// Package poolret_a is the golden fixture for the poolret analyzer:
// pooled operators (structs carrying a BatchPool field) must not make
// row-id vectors or key scratch outside Open and Close.
package poolret_a

// BatchPool stands in for the executor's buffer pool.
type BatchPool struct{}

// GetSel allocates inside the pool itself — legal: BatchPool is not its
// own carrier.
func (p *BatchPool) GetSel() []int32 { return make([]int32, 0, 16) }

// GetKeys is the pool's key-scratch cold path.
func (p *BatchPool) GetKeys() []uint64 { return make([]uint64, 0, 16) }

// scanOp is a pooled operator.
type scanOp struct {
	pool    *BatchPool
	pending []int32
	sel     []int32
}

// Open may allocate: cold-path setup is exempt.
func (s *scanOp) Open() error {
	s.pending = make([]int32, 0, 1024)
	s.sel = make([]int32, 0, 1024)
	s.pending = append(s.pending, seedRows()...)
	return nil
}

// seedRows is a free function reachable only from Open: cold-path
// helpers never enter the hot set.
func seedRows() []int32 {
	return make([]int32, 0, 1024)
}

// Close may allocate too (teardown is exempt).
func (s *scanOp) Close() error {
	s.pending = make([]int32, 0)
	return nil
}

func (s *scanOp) Next() []int32 {
	buf := make([]int32, 0, 1024) // want `make\(\[\]int32\) in pooled operator method Next bypasses the BatchPool`
	cols := make([][]int32, 2)    // a batch's column array is not a pooled shape: legal
	counts := make([]int, 8)      // non-pooled shape: legal anywhere
	names := make(map[string]int) // maps are not pooled
	_, _, _ = cols, counts, names
	_ = newKeys()
	return buf
}

// newKeys is a free function, but Next reaches it through the call
// graph, so hiding the make one call deep changes nothing.
func newKeys() []uint64 {
	return make([]uint64, 4) // want `make\(\[\]uint64\) in newKeys, which is reachable from pooled streaming method Next, bypasses the BatchPool`
}

// Reopen is not the literal Open: the exemption does not stretch to
// near-miss names.
func (s *scanOp) Reopen() error {
	s.sel = make([]int32, 0, 1024) // want `make\(\[\]int32\) in pooled operator method Reopen bypasses the BatchPool`
	return nil
}

// fill's closure allocates a row-id vector and key scratch — the check
// descends into closures.
func (s *scanOp) fill() {
	run := func() {
		ids := make([]int32, 0, 8)   // want `make\(\[\]int32\) in pooled operator method fill bypasses the BatchPool`
		keys := make([]uint64, 0, 8) // want `make\(\[\]uint64\) in pooled operator method fill bypasses the BatchPool`
		_, _ = ids, keys
	}
	run()
}

// coldPath documents its one-off allocation and suppresses the finding.
func (s *scanOp) coldPath() []int32 {
	//lqolint:ignore poolret oversize one-off request deliberately bypasses the pool
	return make([]int32, 1<<20)
}

// plainOp carries no pool, so it may allocate freely.
type plainOp struct {
	rows []int32
}

func (o *plainOp) Next() []int32 {
	return make([]int32, 0, 1024)
}

// freeFill is a free function no streaming method calls: it never enters
// the hot set, whatever its parameters look like.
func freeFill(pool *BatchPool) []int32 {
	return make([]int32, 0, 1024)
}

// valueCarrier holds the pool by value; still a carrier.
type valueCarrier struct {
	pool BatchPool
}

func (v valueCarrier) refill() []int32 {
	return make([]int32, 0, 4) // want `make\(\[\]int32\) in pooled operator method refill bypasses the BatchPool`
}

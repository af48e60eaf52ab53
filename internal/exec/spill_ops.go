package exec

import (
	"sort"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// extSortOp is the spill-capable ORDER BY operator: rows are buffered under
// tryCharge accounting, sorted runs go to disk when the budget refuses a
// row, and the runs are k-way merged on output. The arrival-seq tie-break
// makes the result byte-identical to sortOp's stable in-memory sort,
// whether or not anything spilled.
type extSortOp struct {
	input   Operator
	keys    []sortKey
	gov     *governor
	mgr     *storage.SpillManager
	metrics *obs.OpMetrics
	where   string

	sorter *extSorter
	it     *mergeIter
}

func (s *extSortOp) lessRows(a, b spillRow) bool {
	for _, k := range s.keys {
		c := value.OrderKey(a.row[k.col], b.row[k.col])
		if c == 0 {
			continue
		}
		if k.desc {
			return c > 0
		}
		return c < 0
	}
	return a.seq < b.seq
}

func (s *extSortOp) Open() error {
	if err := s.input.Open(); err != nil {
		return err
	}
	s.sorter = &extSorter{gov: s.gov, mgr: s.mgr, metrics: s.metrics, op: s.where, less: s.lessRows}
	seq := int64(0)
	for {
		row, ok, err := s.input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := s.sorter.add(spillRow{seq: seq, row: row}, rowStateBytes(row)); err != nil {
			return err
		}
		seq++
	}
	it, err := s.sorter.finish()
	if err != nil {
		return err
	}
	s.it = it
	return nil
}

func (s *extSortOp) Next() (value.Row, bool, error) {
	sr, ok, err := s.it.next()
	if err != nil || !ok {
		return nil, false, err
	}
	return sr.row, true, nil
}

func (s *extSortOp) Close() error {
	err := s.input.Close()
	if s.sorter != nil {
		if cerr := s.sorter.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// groupOut pairs a finalized group row with its first-arrival sequence, so
// hash-semantics output can be put back into first-appearance order.
type groupOut struct {
	firstSeq int64
	row      value.Row
}

// spillGroupOp is the spill-capable aggregation operator. byKey selects
// hash semantics (output in group first-appearance order, like hashGroupOp);
// otherwise the input is already sorted on the grouping columns and
// contiguous groups are aggregated streaming, like sortGroupOp, with a
// single charged state. The hash form first attempts an in-memory hash
// build under tryCharge; when the budget refuses a group it releases
// everything and degrades to sort-based external aggregation — rows are
// external-sorted by (group key, arrival seq), each contiguous group is
// aggregated streaming, and the finished groups are reordered by first
// arrival.
type spillGroupOp struct {
	groupCore
	mgr   *storage.SpillManager
	byKey bool

	sorter *extSorter
}

func (g *spillGroupOp) Open() error {
	rows, err := drain(g.input)
	if err != nil {
		return err
	}
	if g.scalarGroup() {
		// One state total: never needs to spill.
		st, err := g.newState(nil)
		if err != nil {
			return err
		}
		for _, row := range rows {
			if err := g.gov.tick(); err != nil {
				return err
			}
			if err := g.feed(st, row); err != nil {
				return err
			}
		}
		g.recordBuild(1, 0)
		return g.emit([]*groupState{st})
	}
	if !g.byKey {
		recs := make([]spillRow, len(rows))
		for i, row := range rows {
			if err := g.gov.tick(); err != nil {
				return err
			}
			recs[i] = spillRow{seq: int64(i), row: row}
		}
		return g.streamGroups(&mergeIter{buf: recs})
	}
	done, err := g.tryHash(rows)
	if done || err != nil {
		return err
	}
	return g.external(rows)
}

// tryHash is the optimistic in-memory hash aggregation: identical to
// hashGroupOp except that group state is admitted with tryCharge. Returns
// done=false (with every charge released) when the budget refuses a group.
func (g *spillGroupOp) tryHash(rows []value.Row) (bool, error) {
	index := make(map[string]*groupState)
	var order []*groupState
	var keyBytes, charged int64
	for _, row := range rows {
		if err := g.gov.tick(); err != nil {
			return false, err
		}
		key := value.GroupKey(row, g.groupCols)
		st, ok := index[key]
		if !ok {
			n := g.groupStateBytes(len(key))
			if !g.gov.tryCharge(n) {
				g.gov.release(charged)
				return false, nil
			}
			charged += n
			var err error
			st, err = g.newState(row)
			if err != nil {
				return false, err
			}
			index[key] = st
			order = append(order, st)
			keyBytes += int64(len(key))
		}
		if err := g.feed(st, row); err != nil {
			return false, err
		}
	}
	g.recordBuild(len(order), keyBytes)
	return true, g.emit(order)
}

// external sorts the rows externally by their canonical GroupKey (equal
// keys ⟺ equal strings, prepended as a sort column) and arrival seq, so
// groups arrive contiguous, then aggregates them streaming.
func (g *spillGroupOp) external(rows []value.Row) error {
	less := func(a, b spillRow) bool {
		ka, kb := a.row[0].Str(), b.row[0].Str()
		if ka != kb {
			return ka < kb
		}
		return a.seq < b.seq
	}
	g.sorter = &extSorter{gov: g.gov, mgr: g.mgr, metrics: g.metrics, op: g.where, less: less}
	for i, row := range rows {
		if err := g.gov.tick(); err != nil {
			return err
		}
		key := value.GroupKey(row, g.groupCols)
		rec := append(value.Row{value.NewString(key)}, row...)
		if err := g.sorter.add(spillRow{seq: int64(i), row: rec}, rowStateBytes(rec)); err != nil {
			return err
		}
	}
	it, err := g.sorter.finish()
	if err != nil {
		return err
	}
	return g.streamGroups(it)
}

// streamGroups aggregates contiguous groups off a sorted record stream, one
// charged state at a time (charge on group start, release on finalize — the
// whole point of sorting first). Hash semantics then restore
// first-appearance order from each group's first-arrival seq.
func (g *spillGroupOp) streamGroups(it *mergeIter) error {
	var results []groupOut
	var cur *groupState
	var curKey string
	var curRepr value.Row
	var firstSeq, charged, keyBytes int64
	finalizeCur := func() error {
		if cur == nil {
			return nil
		}
		row, err := g.finalize(cur)
		if err != nil {
			return err
		}
		results = append(results, groupOut{firstSeq: firstSeq, row: row})
		g.gov.release(charged)
		charged = 0
		cur = nil
		return nil
	}
	for {
		sr, ok, err := it.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := g.gov.tick(); err != nil {
			return err
		}
		row := sr.row
		var key string
		if g.byKey {
			key = row[0].Str()
			row = row[1:]
		}
		newGroup := cur == nil
		if !newGroup {
			if g.byKey {
				newGroup = key != curKey
			} else {
				newGroup = compareAt(curRepr, g.groupCols, row, g.groupCols) != 0
			}
		}
		if newGroup {
			if err := finalizeCur(); err != nil {
				return err
			}
			cur, err = g.newState(row)
			if err != nil {
				return err
			}
			curKey = key
			curRepr = row
			firstSeq = sr.seq
			if n := g.groupStateBytes(len(key)); g.gov.tryCharge(n) {
				charged = n
			}
			keyBytes += int64(len(key))
		}
		if err := g.feed(cur, row); err != nil {
			return err
		}
	}
	if err := finalizeCur(); err != nil {
		return err
	}
	if g.byKey {
		sort.Slice(results, func(i, j int) bool { return results[i].firstSeq < results[j].firstSeq })
	} else {
		keyBytes = 0 // parity with sortGroupOp's recordBuild accounting
	}
	g.recordBuild(len(results), keyBytes)
	g.out = g.out[:0]
	for _, r := range results {
		g.out = append(g.out, r.row)
	}
	g.pos = 0
	return nil
}

func (g *spillGroupOp) Next() (value.Row, bool, error) { return g.next() }

func (g *spillGroupOp) Close() error {
	if g.sorter != nil {
		return g.sorter.close()
	}
	return nil
}

// Grace hash join parameters: the partition fan-out and the recursion bound
// after which a partition is built in memory regardless of the budget (pure
// key skew — a single join key bigger than the whole budget — cannot be
// split by rehashing, and correctness beats accounting).
const (
	graceParts    = 8
	graceMaxDepth = 3
)

// gracePartition assigns a canonical join key to one of graceParts
// partitions, salted by recursion depth so an oversized partition rehashes
// differently on the next level (FNV-1a with a depth-perturbed basis).
func gracePartition(key string, depth int) int {
	h := uint64(1469598103934665603) + uint64(depth)*0x9e3779b97f4a7c15
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % graceParts)
}

// joinMatch is one grace-join output row with the coordinates that restore
// in-memory output order: probe arrival seq, then build insertion seq.
type joinMatch struct {
	probeSeq, buildSeq int64
	row                value.Row
}

// spillHashJoinOp is the grace hash join. It builds the right side in
// memory under tryCharge — while the budget holds this is hashJoinOp
// verbatim, streaming probes in left order. The first refused entry flips
// it to grace mode: both sides are hash-partitioned to temp files, each
// partition is built and probed independently (recursing with a rehash when
// a partition alone exceeds the budget), and the collected matches are
// sorted by (probe seq, build seq), which is exactly the in-memory output
// order.
type spillHashJoinOp struct {
	left, right Operator
	keys        []equiKey
	residual    expr.Expr
	params      expr.Params
	metrics     *obs.OpMetrics
	gov         *governor
	mgr         *storage.SpillManager
	where       string

	// in-memory streaming mode
	inMem    bool
	table    map[string][]value.Row
	leftCols []int
	cur      value.Row
	matches  []value.Row
	mpos     int
	done     bool

	// grace mode
	files []*spillFile
	out   []value.Row
	pos   int
}

func (j *spillHashJoinOp) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	rows, err := drain(j.right)
	if err != nil {
		return err
	}
	rightCols := make([]int, len(j.keys))
	leftCols := make([]int, len(j.keys))
	for i, k := range j.keys {
		rightCols[i] = k.right
		leftCols[i] = k.left
	}
	j.leftCols = leftCols
	j.table = make(map[string][]value.Row)
	var entries, stateBytes, charged int64
	spill := false
	var build []spillRow
	for _, row := range rows {
		if err := j.gov.tick(); err != nil {
			return err
		}
		if anyNullAt(row, rightCols) {
			continue
		}
		build = append(build, spillRow{seq: int64(len(build)), row: row})
		if spill {
			continue
		}
		key := value.GroupKey(row, rightCols)
		entry := int64(len(key)) + rowStateBytes(row)
		if !j.gov.tryCharge(entry) {
			spill = true
			j.table = nil
			j.gov.release(charged)
			continue
		}
		charged += entry
		j.table[key] = append(j.table[key], row)
		entries++
		stateBytes += entry
	}
	if !spill {
		if j.metrics != nil {
			j.metrics.BuildEntries.Add(entries)
			j.metrics.StateBytes.Add(stateBytes)
		}
		j.inMem = true
		j.cur = nil
		j.matches = nil
		j.mpos = 0
		j.done = false
		return nil
	}
	return j.grace(build, rightCols, leftCols)
}

// newPartitionFiles creates one spill file per partition, all tracked for
// Close-time sweeping.
func (j *spillHashJoinOp) newPartitionFiles(tag string) ([]*spillFile, error) {
	parts := make([]*spillFile, graceParts)
	for i := range parts {
		sf, err := newSpillFile(j.mgr, j.gov, j.metrics, j.where, tag)
		if err != nil {
			return nil, err
		}
		j.files = append(j.files, sf)
		parts[i] = sf
	}
	if j.metrics != nil {
		j.metrics.SpillParts.Add(graceParts)
	}
	return parts, nil
}

// grace partitions the build rows and the (streamed) probe side to disk,
// processes each partition pair, and restores in-memory output order.
func (j *spillHashJoinOp) grace(build []spillRow, rightCols, leftCols []int) error {
	bparts, err := j.newPartitionFiles("build")
	if err != nil {
		return err
	}
	for _, sr := range build {
		if err := j.gov.tick(); err != nil {
			return err
		}
		key := value.GroupKey(sr.row, rightCols)
		if err := bparts[gracePartition(key, 0)].writeRecord(sr.seq, sr.row); err != nil {
			return err
		}
	}
	pparts, err := j.newPartitionFiles("probe")
	if err != nil {
		return err
	}
	probeSeq := int64(0)
	for {
		row, ok, err := j.left.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		seq := probeSeq
		probeSeq++
		if anyNullAt(row, leftCols) {
			continue
		}
		key := value.GroupKey(row, leftCols)
		if err := pparts[gracePartition(key, 0)].writeRecord(seq, row); err != nil {
			return err
		}
	}
	var out []joinMatch
	for p := 0; p < graceParts; p++ {
		if err := j.processPartition(bparts[p], pparts[p], rightCols, leftCols, 0, &out); err != nil {
			return err
		}
		if err := bparts[p].discard(); err != nil {
			return err
		}
		if err := pparts[p].discard(); err != nil {
			return err
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].probeSeq != out[b].probeSeq {
			return out[a].probeSeq < out[b].probeSeq
		}
		return out[a].buildSeq < out[b].buildSeq
	})
	j.out = make([]value.Row, len(out))
	for i, m := range out {
		j.out[i] = m.row
	}
	j.pos = 0
	return nil
}

// processPartition builds one partition's hash table and probes it with the
// matching probe file. A partition whose table alone exceeds the budget is
// re-partitioned with a depth-salted hash and recursed; at graceMaxDepth it
// is built uncharged (a single oversized key cannot be split further).
func (j *spillHashJoinOp) processPartition(bf, pf *spillFile, rightCols, leftCols []int, depth int, out *[]joinMatch) error {
	if err := bf.startRead(); err != nil {
		return err
	}
	var recs []spillRow
	for {
		sr, ok, err := bf.readRecord()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := j.gov.tick(); err != nil {
			return err
		}
		recs = append(recs, sr)
	}
	table := make(map[string][]spillRow)
	var charged, entries, stateBytes int64
	fits := true
	for _, sr := range recs {
		if err := j.gov.tick(); err != nil {
			return err
		}
		key := value.GroupKey(sr.row, rightCols)
		entry := int64(len(key)) + rowStateBytes(sr.row)
		if !j.gov.tryCharge(entry) {
			fits = false
			j.gov.release(charged)
			charged = 0
			break
		}
		charged += entry
		table[key] = append(table[key], sr)
		entries++
		stateBytes += entry
	}
	if !fits && depth < graceMaxDepth {
		return j.recursePartition(recs, pf, rightCols, leftCols, depth+1, out)
	}
	if !fits {
		// Depth exhausted: force the build uncharged rather than fail.
		table = make(map[string][]spillRow)
		entries, stateBytes = 0, 0
		for _, sr := range recs {
			if err := j.gov.tick(); err != nil {
				return err
			}
			key := value.GroupKey(sr.row, rightCols)
			table[key] = append(table[key], sr)
			entries++
			stateBytes += int64(len(key)) + rowStateBytes(sr.row)
		}
	}
	if j.metrics != nil {
		j.metrics.BuildEntries.Add(entries)
		j.metrics.StateBytes.Add(stateBytes)
	}
	if err := pf.startRead(); err != nil {
		return err
	}
	for {
		sr, ok, err := pf.readRecord()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := j.gov.tick(); err != nil {
			return err
		}
		ms := table[value.GroupKey(sr.row, leftCols)]
		if j.metrics != nil && len(ms) > 0 {
			j.metrics.ProbeHits.Add(int64(len(ms)))
		}
		for _, b := range ms {
			row := sr.row.Concat(b.row)
			truth, err := expr.EvalTruth(j.residual, row, j.params)
			if err != nil {
				return err
			}
			if truth == value.True {
				*out = append(*out, joinMatch{probeSeq: sr.seq, buildSeq: b.seq, row: row})
			}
		}
	}
	j.gov.release(charged)
	return nil
}

// recursePartition re-partitions an oversized partition (build records in
// memory, probe records streamed from the parent file) with the next
// depth's hash and processes the sub-partitions.
func (j *spillHashJoinOp) recursePartition(recs []spillRow, pf *spillFile, rightCols, leftCols []int, depth int, out *[]joinMatch) error {
	subB, err := j.newPartitionFiles("build")
	if err != nil {
		return err
	}
	for _, sr := range recs {
		if err := j.gov.tick(); err != nil {
			return err
		}
		key := value.GroupKey(sr.row, rightCols)
		if err := subB[gracePartition(key, depth)].writeRecord(sr.seq, sr.row); err != nil {
			return err
		}
	}
	subP, err := j.newPartitionFiles("probe")
	if err != nil {
		return err
	}
	if err := pf.startRead(); err != nil {
		return err
	}
	for {
		sr, ok, err := pf.readRecord()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := j.gov.tick(); err != nil {
			return err
		}
		key := value.GroupKey(sr.row, leftCols)
		if err := subP[gracePartition(key, depth)].writeRecord(sr.seq, sr.row); err != nil {
			return err
		}
	}
	for p := 0; p < graceParts; p++ {
		if err := j.processPartition(subB[p], subP[p], rightCols, leftCols, depth, out); err != nil {
			return err
		}
		if err := subB[p].discard(); err != nil {
			return err
		}
		if err := subP[p].discard(); err != nil {
			return err
		}
	}
	return nil
}

func (j *spillHashJoinOp) Next() (value.Row, bool, error) {
	if !j.inMem {
		if j.pos >= len(j.out) {
			return nil, false, nil
		}
		row := j.out[j.pos]
		j.pos++
		return row, true, nil
	}
	// In-memory streaming: hashJoinOp.Next verbatim.
	for {
		if j.done {
			return nil, false, nil
		}
		for j.mpos < len(j.matches) {
			out := j.cur.Concat(j.matches[j.mpos])
			j.mpos++
			truth, err := expr.EvalTruth(j.residual, out, j.params)
			if err != nil {
				return nil, false, err
			}
			if truth == value.True {
				return out, true, nil
			}
		}
		row, ok, err := j.left.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.done = true
			return nil, false, nil
		}
		if anyNullAt(row, j.leftCols) {
			continue
		}
		j.cur = row
		j.matches = j.table[value.GroupKey(row, j.leftCols)]
		j.mpos = 0
		if j.metrics != nil && len(j.matches) > 0 {
			j.metrics.ProbeHits.Add(int64(len(j.matches)))
		}
	}
}

func (j *spillHashJoinOp) Close() error {
	err := j.left.Close()
	for _, f := range j.files {
		if derr := f.discard(); derr != nil && err == nil {
			err = derr
		}
	}
	j.files = nil
	return err
}

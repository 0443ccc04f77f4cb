package engine

// Early duplicate elimination. Under a DISTINCT over a projection the
// operators above a BGP read only its live slots (see liveSlots), and a
// join stage reads only some of the slots bound before it. Once a bound
// slot is read by nothing downstream it is dead, and rows that differ
// only in dead slots yield the same continuations: the DISTINCT would
// throw all but the first copy away. A dedup stage in front of a join
// stage drops those copies before the join multiplies them. Q8's first
// UNION branch meets each (?author, ?doc2) pair once per document ?doc
// the author shares with Erdős; deduplicated there, the chain probes
// the last two patterns once per pair.
//
// The stage keeps the first row of each key in input order and join
// stages extend their input rows in order, so the first row carrying
// each live value combination still arrives first: DISTINCT, ORDER BY
// and LIMIT above see the same answer, row for row.

import (
	"fmt"
	"strings"
)

// placeDedups puts a dedup stage in front of each join stage of ch
// (the semi-join stage excluded) where one is likely to pay: a slot
// died at the stage before it — it is not live, and neither this stage,
// a later one nor the semi-join stage reads it — and this stage is
// estimated to emit more than one row per input row (fan[k] for
// joins[k]). The dedup keys rows on the upstream slots still needed,
// except those the anchor scan binds from a one-row range, which hold
// the same value on every row (Q8's ?erdoes). A slot that died further
// upstream, with no fan-out right after it, is left to the DISTINCT
// above: its repeats are often none at all. Q4's ?journal dies at the
// stage binding ?article2 from it, and an article has one journal, so a
// dedup two stages on would look up every one of 171k rows at 50k
// triples and drop none.
//
// It returns the chain's stage notation with each dedup[…] in place. A
// nil live places none; the chain's estimates stay as planned.
func (c *compiled) placeDedups(ch *vecChain, stages []string, fan []float64, live liveSlots) []string {
	if live == nil {
		return stages
	}
	reads := map[int]bool{}
	if ch.semi != nil {
		for _, s := range ch.semi.keys {
			reads[s] = true
		}
	}
	need := make([][]int, len(ch.joins))
	for k := len(ch.joins) - 1; k >= 0; k-- {
		j := ch.joins[k]
		for _, s := range c.stageReads(j) {
			reads[s] = true
		}
		for _, s := range j.prevBound {
			if live.has(s) || reads[s] {
				need[k] = append(need[k], s)
			}
		}
	}
	fixed := map[int]bool{}
	if len(ch.scan.rng.Rows) == 1 {
		for _, s := range ch.scan.slotOf {
			fixed[s] = true
		}
	}
	out := stages[:1:1]
	var tsteps []*tstep
	if ch.tsteps != nil {
		tsteps = ch.tsteps[:1:1]
	}
	dead := 0 // the slots dead in front of the previous stage
	for k, j := range ch.joins {
		n := len(j.prevBound) - len(need[k])
		if n > dead && fan[k] > 1 {
			var keys []int
			var names []string
			for _, s := range need[k] {
				if !fixed[s] {
					keys = append(keys, s)
					names = append(names, "?"+c.names[s])
				}
			}
			desc := fmt.Sprintf("dedup[%s]", strings.Join(names, " "))
			j.dedup = &vecDedup{keys: keys}
			out = append(out, desc)
			if tsteps != nil {
				j.dedup.ts = &tstep{op: "dedup", pattern: desc[len("dedup"):]}
				tsteps = append(tsteps, j.dedup.ts)
			}
		}
		dead = n
		out = append(out, stages[1+k])
		if tsteps != nil {
			tsteps = append(tsteps, ch.tsteps[1+k])
		}
	}
	if tsteps != nil {
		ch.tsteps = append(tsteps, ch.tsteps[1+len(ch.joins):]...)
	}
	return append(out, stages[1+len(ch.joins):]...)
}

// vecDedup is a dedup stage: it drops the input rows whose keys repeat
// an earlier row's, keeping first occurrences in order. Each partition
// of a parallel chain has its own copy and set, emptied on open.
type vecDedup struct {
	child  vecOp
	keys   []int
	ts     *tstep
	set    distinctSet
	selbuf []int32
}

func (d *vecDedup) open() {
	d.child.open()
	d.set = newDistinctSet(d.keys)
	d.set.reset()
}

func (d *vecDedup) next() (*Batch, error) {
	for {
		b, err := d.child.next()
		if b == nil || err != nil {
			return nil, err
		}
		in := b.Len()
		d.set.keepNew(b, &d.selbuf)
		if d.ts != nil {
			d.ts.in.Add(int64(in))
			d.ts.rows.Add(int64(b.Len()))
			if b.Len() > 0 {
				d.ts.batches.Add(1)
			}
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

package results_test

import (
	"fmt"
	"io"
	"testing"

	"sp2bench/internal/rdf"
	"sp2bench/internal/results"
)

// BenchmarkWrite times each writer on two synthetic result shapes, no
// generator needed: q4 is Q4's large answer (100k rows of two
// xsd:string author names), q10 a lookup-sized answer (533 rows of an
// IRI and a literal).
func BenchmarkWrite(b *testing.B) {
	q4 := make([][]rdf.Term, 100_000)
	for i := range q4 {
		q4[i] = []rdf.Term{
			rdf.String(fmt.Sprintf("Adamanta Schaaf%d", i%977)),
			rdf.String(fmt.Sprintf("Dell Kosel%d", i%1009)),
		}
	}
	q10 := make([][]rdf.Term, 533)
	for i := range q10 {
		q10[i] = []rdf.Term{
			rdf.IRI(fmt.Sprintf("http://localhost/publications/inprocs/Proceeding%d/1960/Inproceeding%d", i%31, i)),
			rdf.String(fmt.Sprintf("fogies pennies doubtlessly %d", i)),
		}
	}
	shapes := []struct {
		name string
		res  *results.Result
	}{
		{"q4", results.Select([]string{"name1", "name2"}, q4)},
		{"q10", results.Select([]string{"subj", "pred"}, q10)},
	}
	for _, f := range []results.Format{results.JSON, results.XML, results.TSV, results.CSV, results.Table} {
		for _, s := range shapes {
			f, s := f, s
			b.Run(f.String()+"/"+s.name, func(b *testing.B) {
				var size countingWriter
				if err := s.res.Write(&size, f); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.res.Write(io.Discard, f); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

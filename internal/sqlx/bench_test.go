package sqlx

import (
	"testing"

	"lqo/internal/datagen"
	"lqo/internal/workload"
)

// BenchmarkParseStatement is the parse a never-seen ad-hoc text pays on
// the serving path — lex, parse, validate, the join graph and the shape
// key — over generated StatsCEB texts of 3–5 joins, one text per op:
//
//	go test ./internal/sqlx -run '^$' -bench ParseStatement -benchmem
func BenchmarkParseStatement(b *testing.B) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 5, Scale: 0.05})
	var texts []string
	for joins := 3; joins <= 5; joins++ {
		for _, q := range workload.GenWorkload(cat, workload.Options{Seed: int64(joins), Count: 64, MinJoins: joins, MaxJoins: joins, MaxPreds: 3}) {
			texts = append(texts, q.SQL())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseStatement(texts[i%len(texts)], cat); err != nil {
			b.Fatal(err)
		}
	}
}

package sqlx

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/query"
	"lqo/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/parse_golden.txt from the current parser")

const parseGoldenPath = "testdata/parse_golden.txt"

// precedenceCases are texts whose error depends on which of two faults
// the parser reports: a lex error anywhere in the text wins over any
// parse error, wherever the parse fails.
var precedenceCases = []string{
	"SELECT COUNT(*) FROM items WHERE WHERE items.score > 1 #",
	"SELECT COUNT(*) FROM FROM items WHERE items.name = 'ann",
	"SELECT * FROM items WHERE items.score ! 3",
	"SELECT COUNT(*) FROM items WHERE items.score != 3 !",
	"SELECT COUNT(*) FROM items WHERE items.score > 1e",
	"SELECT COUNT(*) FROM items WHERE items.score > 1e+",
	"SELECT COUNT(*) FROM items WHERE items.score > 1e5",
	"SELECT COUNT(*) FROM items WHERE items.score > 1E-2",
	"SELECT COUNT(*) FROM items WHERE items.score > -",
	"SELECT COUNT(*) FROM items WHERE items.score > - 5",
	"SELECT COUNT(*) FROM items WHERE items.score > 1.",
	"SELECT COUNT(*) FROM items WHERE items.score > .5",
	"SELECT COUNT(*) FROM items; SELECT",
	"SELECT COUNT(*) FROM items;;",
	"SELECT COUNT(*) FROM items WHERE items.score > 1 garbage",
	"SELECT COUNT(*) FROM items WHERE items.score > 1 garbage 'open",
	"SELECT COUNT(*) FROM items WHERE nosuch.name = 'ann' AND items.score > 1 @",
	"SELECT COUNT(*) FROM items WHERE items.score = 99999999999999999999 $",
	"SELECT COUNT(*) FROM items WHERE items.score = 99999999999999999999",
	"SELECT COUNT(*) FROM items WHERE items.score BETWEEN 1 AND",
	"SELECT COUNT(*) FROM items WHERE items.score BETWEEN 1 OR 2",
	"SELECT COUNT(*) FROM items WHERE items.score = items.",
	"SELECT COUNT(*) FROM items WHERE items.score = items",
	"SELECT COUNT(*) FROM items WHERE items.score = ?",
	"SELECT COUNT(*) FROM items WHERE items.score BETWEEN ? AND 4 AND items.name = ?",
	"SELECT COUNT(*) FROM items WHERE items.name = 'it''s' AND items.score < 2",
	"SELECT COUNT(*) FROM items WHERE items.name = ''",
	"SELECT COUNT(*) FROM items WHERE items.price = 3",
	"SELECT COUNT(*) FROM items AS;",
	"SELECT COUNT(*) FROM items AS WHERE items.score > 1;",
	"SELECT COUNT(*) FROM items AS i WHERE i.score > 1;",
	"SELECT COUNT(*) FROM items AS AS;",
	"SELECT COUNT(*) FROM items AS, orders;",
	"SELECT COUNT(*) FROM items i, items i;",
	"SELECT COUNT(*) FROM items, orders WHERE items.id = orders.item_id AND orders.id = items.id;",
	"SELECT SUM(items.score) FROM items WHERE items.score <> 2;",
	"SELECT MEDIAN(items.score) FROM items @",
	"SELECT COUNT(*) FROM items\u00e9",
	"SELECT COUNT(*) FROM items \u00aa",
	"SELECT COUNT(*) FROM items\tWHERE\nitems.score\r>=\t0",
}

// goldenTexts returns the texts the golden records and the catalog each
// section parses against: FuzzParse's seeds and checked-in corpus, the
// precedence cases, about a thousand generated StatsCEB queries of 1–5
// joins and the same queries as ?-templates.
func goldenTexts(t *testing.T) (sections []goldenSection) {
	var small []string
	small = append(small, parseSeeds...)
	corpus, err := filepath.Glob("testdata/fuzz/FuzzParse/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range corpus {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		arg := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "string("), ")")
		s, err := strconv.Unquote(arg)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		small = append(small, s)
	}
	small = append(small, precedenceCases...)
	sections = append(sections, goldenSection{"items", testCatalog(), small})

	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.05})
	var texts, templates []string
	for joins := 1; joins <= 5; joins++ {
		for _, q := range workload.GenWorkload(cat, workload.Options{Seed: int64(31 * joins), Count: 200, MinJoins: joins, MaxJoins: joins}) {
			texts = append(texts, q.SQL())
			tq := q.Clone()
			n := 0
			for i := range tq.Preds {
				n++
				tq.Preds[i].Param = n
				if tq.Preds[i].Op == query.Between {
					n++
					tq.Preds[i].Param2 = n
				}
			}
			templates = append(templates, tq.SQL())
		}
	}
	sections = append(sections, goldenSection{"statsceb", cat, texts}, goldenSection{"statsceb-templates", cat, templates})
	return sections
}

type goldenSection struct {
	name  string
	cat   *data.Catalog
	texts []string
}

// renderGolden writes one line per text: the text, what Parse returns
// (the key or the exact error) and what Prepare returns (the shape key,
// "=" when it is the Parse key, and the placeholder count, or the exact
// error). It also checks that ParseStatement agrees with Parse.
func renderGolden(t *testing.T, sections []goldenSection) []byte {
	var b bytes.Buffer
	for _, sec := range sections {
		fmt.Fprintf(&b, "# %s\n", sec.name)
		for _, sql := range sec.texts {
			var parsed, key string
			if q, err := Parse(sql, sec.cat); err != nil {
				parsed = "err " + strconv.Quote(err.Error())
			} else {
				key = q.Key()
				parsed = "key " + strconv.Quote(key)
			}
			st, _, err := ParseStatement(sql, sec.cat)
			switch {
			case err != nil && key != "":
				t.Errorf("%q: Parse accepted, ParseStatement: %v", sql, err)
			case err == nil && st.ShapeKey() != key:
				t.Errorf("%q: ParseStatement ShapeKey %q, Parse key %q", sql, st.ShapeKey(), key)
			}
			var prepared string
			if p, err := Prepare(sql, sec.cat); err != nil {
				prepared = "err " + strconv.Quote(err.Error())
			} else if p.ShapeKey() == key {
				prepared = fmt.Sprintf("shape = params %d", p.NumParams())
			} else {
				prepared = fmt.Sprintf("shape %s params %d", strconv.Quote(p.ShapeKey()), p.NumParams())
			}
			fmt.Fprintf(&b, "%s\t%s\t%s\n", strconv.Quote(sql), parsed, prepared)
		}
	}
	return b.Bytes()
}

// TestParserIdentityGolden pins what the parser answers, byte for byte,
// for every text goldenTexts lists: a parser rewrite must reproduce the
// recorded keys, shape keys, placeholder counts and error strings.
// -update-golden rewrites the file, which is only right when a change
// of answer is the point.
func TestParserIdentityGolden(t *testing.T) {
	got := renderGolden(t, goldenTexts(t))
	if *updateGolden {
		if err := os.WriteFile(parseGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(parseGoldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to record): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	bad := 0
	for i := 0; i < max(len(gl), len(wl)) && bad < 10; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			bad++
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
	if bad == 0 {
		t.Error("golden differs")
	}
}

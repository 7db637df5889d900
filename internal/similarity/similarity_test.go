package similarity

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"releaseDate", []string{"release", "date"}},
		{"ReleaseDate", []string{"release", "date"}},
		{"release_date", []string{"release", "date"}},
		{"release-date", []string{"release", "date"}},
		{"release date", []string{"release", "date"}},
		{"RELEASE", []string{"release"}},
		{"HTTPServer", []string{"http", "server"}},
		{"PONumber2", []string{"po", "number", "2"}},
		{"addr1", []string{"addr", "1"}},
		{"", nil},
		{"__", nil},
		{"a", []string{"a"}},
		{"order.item/qty", []string{"order", "item", "qty"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"date", "date", 0},
		{"releaseDate", "releaseDates", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPrefixSuffixSimilarity(t *testing.T) {
	if got := PrefixSimilarity("release", "releaseDate"); got != 1 {
		t.Errorf("PrefixSimilarity = %v, want 1", got)
	}
	if got := SuffixSimilarity("screenDate", "releaseDate"); got != 0.4 {
		t.Errorf("SuffixSimilarity = %v, want 0.4", got)
	}
	if got := PrefixSimilarity("", "x"); got != 0 {
		t.Errorf("PrefixSimilarity empty = %v, want 0", got)
	}
	if got := PrefixSimilarity("", ""); got != 1 {
		t.Errorf("PrefixSimilarity both empty = %v, want 1", got)
	}
}

func TestJaroKnownValues(t *testing.T) {
	// Classical textbook values.
	if got := Jaro("MARTHA", "MARHTA"); math.Abs(got-0.944444) > 1e-5 {
		t.Errorf("Jaro(MARTHA,MARHTA) = %v, want ~0.9444", got)
	}
	if got := Jaro("DIXON", "DICKSONX"); math.Abs(got-0.766667) > 1e-5 {
		t.Errorf("Jaro(DIXON,DICKSONX) = %v, want ~0.7667", got)
	}
	if got := JaroWinkler("MARTHA", "MARHTA"); math.Abs(got-0.961111) > 1e-5 {
		t.Errorf("JaroWinkler(MARTHA,MARHTA) = %v, want ~0.9611", got)
	}
	if got := Jaro("abc", "xyz"); got != 0 {
		t.Errorf("Jaro with no matches = %v, want 0", got)
	}
}

func TestQGrams(t *testing.T) {
	g := QGrams("ab", 2)
	want := map[string]int{"#a": 1, "ab": 1, "b#": 1}
	if !reflect.DeepEqual(g, want) {
		t.Errorf("QGrams(ab,2) = %v, want %v", g, want)
	}
}

func TestQGramMeasuresIdentityAndDisjoint(t *testing.T) {
	if got := QGramDice("release", "release", 3); got != 1 {
		t.Errorf("identical strings: got %v, want 1", got)
	}
	if got := QGramDice("aaa", "zzz", 3); got != 0 {
		t.Errorf("disjoint strings: got %v, want 0", got)
	}
}

func TestTokenJaccard(t *testing.T) {
	if got := TokenJaccard("release_date", "date of release"); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Errorf("TokenJaccard = %v, want 2/3", got)
	}
	if got := TokenJaccard("releaseDate", "release_date"); got != 1 {
		t.Errorf("TokenJaccard convention variants = %v, want 1", got)
	}
}

func TestCorpusCosine(t *testing.T) {
	names := []string{
		"customer id", "customer name", "order id", "order date",
		"invoice number", "ship date", "product id",
	}
	c := NewCorpus(names, DefaultAbbreviations())
	if c.Size() != len(names) {
		t.Fatalf("Size = %d, want %d", c.Size(), len(names))
	}
	same := c.Cosine("order date", "order date")
	if math.Abs(same-1) > 1e-9 {
		t.Errorf("cosine of identical = %v, want 1", same)
	}
	// "invoice number" vs "invoice nbr" should be near 1 thanks to
	// abbreviation expansion.
	if got := c.Cosine("invoice number", "invoice nbr"); got < 0.99 {
		t.Errorf("cosine with abbreviation = %v, want ~1", got)
	}
	// Sharing only the ubiquitous token "id" should score lower than
	// sharing the rare token "invoice".
	idOnly := c.Cosine("customer id", "product id")
	rare := c.Cosine("invoice number", "invoice total")
	if idOnly >= rare {
		t.Errorf("idf weighting broken: common-token sim %v >= rare-token sim %v", idOnly, rare)
	}
	if got := c.Cosine("zz", "yy"); got != 0 {
		t.Errorf("cosine of token-disjoint names = %v, want 0", got)
	}
}

// All normalized measures must stay within [0, 1] and be symmetric; check
// with random strings.
func TestQuickMeasureRangeAndSymmetry(t *testing.T) {
	alphabet := []rune("abcdeDATE_ ")
	gen := func(r *rand.Rand) string {
		n := r.Intn(12)
		s := make([]rune, n)
		for i := range s {
			s[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(s)
	}
	measures := map[string]func(a, b string) float64{
		"levenshtein": LevenshteinSimilarity,
		"jaro":        Jaro,
		"jarowinkler": JaroWinkler,
		"dice3":       func(a, b string) float64 { return QGramDice(a, b, 3) },
		"token":       TokenJaccard,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := gen(r), gen(r)
		for name, m := range measures {
			ab, ba := m(a, b), m(b, a)
			if ab < -1e-12 || ab > 1+1e-12 {
				t.Logf("%s(%q,%q) = %v out of range", name, a, b, ab)
				return false
			}
			if math.Abs(ab-ba) > 1e-9 {
				t.Logf("%s not symmetric on (%q,%q): %v vs %v", name, a, b, ab, ba)
				return false
			}
			if aa := m(a, a); math.Abs(aa-1) > 1e-9 {
				t.Logf("%s(%q,%q) = %v, want 1 (identity)", name, a, a, aa)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Levenshtein must satisfy the triangle inequality (it is a metric).
func TestQuickLevenshteinTriangle(t *testing.T) {
	alphabet := []rune("abcd")
	gen := func(r *rand.Rand) string {
		n := r.Intn(8)
		s := make([]rune, n)
		for i := range s {
			s[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(s)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

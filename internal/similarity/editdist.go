package similarity

// Levenshtein returns the edit distance between a and b: the minimum
// number of single-rune insertions, deletions, and substitutions.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

// LevenshteinSimilarity normalizes edit distance into [0, 1]:
// 1 − dist / max(|a|, |b|). Two empty strings have similarity 1.
func LevenshteinSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(m)
}

// PrefixSimilarity is the length of the common prefix divided by the
// length of the shorter string. Empty strings yield 0 unless both empty.
func PrefixSimilarity(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	n := len(ra)
	if len(rb) < n {
		n = len(rb)
	}
	if n == 0 {
		return 0
	}
	k := 0
	for k < n && ra[k] == rb[k] {
		k++
	}
	return float64(k) / float64(n)
}

// SuffixSimilarity is the length of the common suffix divided by the
// length of the shorter string.
func SuffixSimilarity(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	n := len(ra)
	if len(rb) < n {
		n = len(rb)
	}
	if n == 0 {
		return 0
	}
	k := 0
	for k < n && ra[len(ra)-1-k] == rb[len(rb)-1-k] {
		k++
	}
	return float64(k) / float64(n)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

package similarity

import "strings"

// QGrams returns the multiset of q-grams of s as a count map, with the
// string padded by q−1 leading and trailing '#' markers so that prefixes
// and suffixes contribute distinctive grams.
func QGrams(s string, q int) map[string]int {
	if q <= 0 {
		panic("similarity: q must be positive")
	}
	pad := strings.Repeat("#", q-1)
	padded := []rune(pad + s + pad)
	grams := make(map[string]int)
	for i := 0; i+q <= len(padded); i++ {
		grams[string(padded[i:i+q])]++
	}
	return grams
}

func gramOverlap(a, b map[string]int) (overlap, sizeA, sizeB int) {
	//lint:sorted integer sum and min-fold over gram counts; exact and commutative
	for g, ca := range a {
		sizeA += ca
		if cb, ok := b[g]; ok {
			if ca < cb {
				overlap += ca
			} else {
				overlap += cb
			}
		}
	}
	//lint:sorted integer sum; exact and commutative
	for _, cb := range b {
		sizeB += cb
	}
	return overlap, sizeA, sizeB
}

// QGramDice is the Dice coefficient 2·|A ∩ B| / (|A| + |B|) over q-gram
// multisets.
func QGramDice(a, b string, q int) float64 {
	ga, gb := QGrams(a, q), QGrams(b, q)
	overlap, sa, sb := gramOverlap(ga, gb)
	if sa+sb == 0 {
		return 1
	}
	return 2 * float64(overlap) / float64(sa+sb)
}

// TokenJaccard is the Jaccard coefficient over the token *sets* of the
// two names after tokenization.
func TokenJaccard(a, b string) float64 {
	ta, tb := Tokenize(a), Tokenize(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	setA := make(map[string]bool, len(ta))
	for _, t := range ta {
		setA[t] = true
	}
	setB := make(map[string]bool, len(tb))
	for _, t := range tb {
		setB[t] = true
	}
	inter := 0
	//lint:sorted counts set intersections; a count is order-insensitive
	for t := range setA {
		if setB[t] {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

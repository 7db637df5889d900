// Package similarity implements the string-similarity substrate for the
// schema matchers: tokenization of attribute names, normalization,
// character-based measures (Levenshtein, Jaro-Winkler, q-grams, common
// prefix and suffix), token-based Jaccard and a TF-IDF cosine over an
// attribute-name corpus.
//
// All similarity functions return values in [0, 1], where 1 means
// identical under the measure.
package similarity

import (
	"strings"
	"unicode"
)

// Tokenize splits an attribute name into lower-case word tokens. It
// understands camelCase, PascalCase, snake_case, kebab-case, spaces, and
// digit boundaries: "releaseDate" → ["release", "date"],
// "PO_Number2" → ["po", "number", "2"].
func Tokenize(s string) []string {
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	runes := []rune(s)
	for i, r := range runes {
		switch {
		case r == '_' || r == '-' || r == ' ' || r == '.' || r == '/' || r == ':':
			flush()
		case unicode.IsUpper(r):
			// Start of a new word unless we're inside an acronym run
			// ("HTTPServer" → ["http", "server"]).
			if i > 0 {
				prev := runes[i-1]
				nextLower := i+1 < len(runes) && unicode.IsLower(runes[i+1])
				if unicode.IsLower(prev) || unicode.IsDigit(prev) || (unicode.IsUpper(prev) && nextLower) {
					flush()
				}
			}
			cur.WriteRune(r)
		case unicode.IsDigit(r):
			if i > 0 && !unicode.IsDigit(runes[i-1]) {
				flush()
			}
			cur.WriteRune(r)
		case unicode.IsLetter(r):
			if i > 0 && unicode.IsDigit(runes[i-1]) {
				flush()
			}
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// DefaultAbbreviations is a small domain-independent abbreviation
// dictionary used by the matchers' normalization step. It covers the
// shorthand that the synthetic dataset generator injects plus common
// database-schema abbreviations.
func DefaultAbbreviations() map[string]string {
	return map[string]string{
		"addr":  "address",
		"amt":   "amount",
		"cat":   "category",
		"cd":    "code",
		"cnt":   "count",
		"co":    "company",
		"ctry":  "country",
		"cust":  "customer",
		"desc":  "description",
		"dept":  "department",
		"dob":   "date of birth",
		"dt":    "date",
		"fax":   "facsimile",
		"fname": "first name",
		"id":    "identifier",
		"lname": "last name",
		"loc":   "location",
		"mgr":   "manager",
		"nbr":   "number",
		"no":    "number",
		"num":   "number",
		"org":   "organization",
		"ord":   "order",
		"ph":    "phone",
		"pmt":   "payment",
		"po":    "purchase order",
		"prod":  "product",
		"qty":   "quantity",
		"ref":   "reference",
		"seq":   "sequence",
		"ssn":   "social security number",
		"st":    "street",
		"tel":   "telephone",
		"univ":  "university",
		"zip":   "postal code",
	}
}

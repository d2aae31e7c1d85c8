package a

// inner is embedded in Fields; Use reads its field through promotion.
type inner struct{ n int }

// pair is a map key: the map reads its fields by hashing them.
type pair struct{ x, y int }

// Fields holds one field per class the field rule tells apart.
type Fields struct {
	inner
	Read     int
	Literal  int
	Assigned int
	Counted  int
	Tagged   int `json:"tagged"`
	TestRead int
}

// Use writes every field of Fields and reads Read and n.
func Use(f *Fields) int {
	*f = Fields{Literal: 1, TestRead: 2}
	f.Assigned = 3
	f.Counted++
	seen := map[pair]bool{{x: 1, y: 2}: true}
	if seen[pair{x: f.n}] {
		return 0
	}
	return f.Read
}

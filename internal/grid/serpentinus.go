package grid

// TorusSerpentinus is the torus in which both the horizontal and the
// vertical wrap-arounds form single spirals: rows chain as in the torus
// cordalis, and additionally the last vertex (m-1, j) of each column is
// connected to the first vertex (0, (j-1) mod n) of the previous column
// (Definition 1 of the paper).
type TorusSerpentinus struct {
	dims Dims
}

// Dims returns the lattice dimensions.
func (t TorusSerpentinus) Dims() Dims { return t.dims }

// Kind returns KindTorusSerpentinus.
func (t TorusSerpentinus) Kind() Kind { return KindTorusSerpentinus }

// Name returns "torus-serpentinus".
func (t TorusSerpentinus) Name() string { return KindTorusSerpentinus.String() }

// NeighborCoords appends the four neighbors of c in up, down, left, right
// order.  "Down" of the last vertex of column j is the first vertex of
// column (j-1) mod n; "up" of the first vertex of column j is the last
// vertex of column (j+1) mod n.  Left/right follow the cordalis spiral.
func (t TorusSerpentinus) NeighborCoords(c Coord, buf []Coord) []Coord {
	m, n := t.dims.Rows, t.dims.Cols

	var up Coord
	if c.Row > 0 {
		up = Coord{Row: c.Row - 1, Col: c.Col}
	} else {
		up = Coord{Row: m - 1, Col: (c.Col + 1) % n}
	}
	var down Coord
	if c.Row < m-1 {
		down = Coord{Row: c.Row + 1, Col: c.Col}
	} else {
		down = Coord{Row: 0, Col: (c.Col - 1 + n) % n}
	}
	var left Coord
	if c.Col > 0 {
		left = Coord{Row: c.Row, Col: c.Col - 1}
	} else {
		left = Coord{Row: (c.Row - 1 + m) % m, Col: n - 1}
	}
	var right Coord
	if c.Col < n-1 {
		right = Coord{Row: c.Row, Col: c.Col + 1}
	} else {
		right = Coord{Row: (c.Row + 1) % m, Col: 0}
	}
	return append(buf, up, down, left, right)
}

// Neighbors appends the four neighbor indices of v in up, down, left, right
// order.
func (t TorusSerpentinus) Neighbors(v int, buf []int) []int {
	d := t.dims
	m, n := d.Rows, d.Cols
	row, col := v/n, v%n

	var up, down int
	if row > 0 {
		up = (row-1)*n + col
	} else {
		up = (m-1)*n + (col+1)%n
	}
	if row < m-1 {
		down = (row+1)*n + col
	} else {
		down = (col - 1 + n) % n
	}

	var left, right int
	if col > 0 {
		left = row*n + col - 1
	} else {
		left = ((row-1+m)%m)*n + n - 1
	}
	if col < n-1 {
		right = row*n + col + 1
	} else {
		right = ((row + 1) % m) * n
	}
	return append(buf, up, down, left, right)
}

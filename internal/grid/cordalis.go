package grid

// TorusCordalis is the torus in which the horizontal wrap-around forms a
// single spiral: the last vertex (i, n-1) of each row is connected to the
// first vertex ((i+1) mod m, 0) of the next row, while columns wrap as in
// the toroidal mesh (Definition 1 of the paper).
type TorusCordalis struct {
	dims Dims
}

// Dims returns the lattice dimensions.
func (t TorusCordalis) Dims() Dims { return t.dims }

// Kind returns KindTorusCordalis.
func (t TorusCordalis) Kind() Kind { return KindTorusCordalis }

// Name returns "torus-cordalis".
func (t TorusCordalis) Name() string { return KindTorusCordalis.String() }

// NeighborCoords appends the four neighbors of c in up, down, left, right
// order.  "Left" of the first vertex of a row is the last vertex of the
// previous row; "right" of the last vertex of a row is the first vertex of
// the next row.
func (t TorusCordalis) NeighborCoords(c Coord, buf []Coord) []Coord {
	m, n := t.dims.Rows, t.dims.Cols
	up := Coord{Row: (c.Row - 1 + m) % m, Col: c.Col}
	down := Coord{Row: (c.Row + 1) % m, Col: c.Col}

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
func (t TorusCordalis) Neighbors(v int, buf []int) []int {
	d := t.dims
	m, n := d.Rows, d.Cols
	row, col := v/n, v%n

	upRow := row - 1
	if upRow < 0 {
		upRow = m - 1
	}
	downRow := row + 1
	if downRow == m {
		downRow = 0
	}

	var left, right int
	if col > 0 {
		left = row*n + col - 1
	} else {
		left = upRow*n + n - 1
	}
	if col < n-1 {
		right = row*n + col + 1
	} else {
		right = downRow * n
	}
	return append(buf, upRow*n+col, downRow*n+col, left, right)
}

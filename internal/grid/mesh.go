package grid

// ToroidalMesh is the classical torus: vertex (i,j) is adjacent to
// ((i±1) mod m, j) and (i, (j±1) mod n)  (Definition 1 of the paper).
type ToroidalMesh struct {
	dims Dims
}

// Dims returns the lattice dimensions.
func (t ToroidalMesh) Dims() Dims { return t.dims }

// Kind returns KindToroidalMesh.
func (t ToroidalMesh) Kind() Kind { return KindToroidalMesh }

// Name returns "toroidal-mesh".
func (t ToroidalMesh) Name() string { return KindToroidalMesh.String() }

// NeighborCoords appends the four neighbors of c in up, down, left, right
// order.
func (t ToroidalMesh) NeighborCoords(c Coord, buf []Coord) []Coord {
	m, n := t.dims.Rows, t.dims.Cols
	up := Coord{Row: (c.Row - 1 + m) % m, Col: c.Col}
	down := Coord{Row: (c.Row + 1) % m, Col: c.Col}
	left := Coord{Row: c.Row, Col: (c.Col - 1 + n) % n}
	right := Coord{Row: c.Row, Col: (c.Col + 1) % n}
	return append(buf, up, down, left, right)
}

// Neighbors appends the four neighbor indices of v in up, down, left, right
// order.
func (t ToroidalMesh) Neighbors(v int, buf []int) []int {
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
	leftCol := col - 1
	if leftCol < 0 {
		leftCol = n - 1
	}
	rightCol := col + 1
	if rightCol == n {
		rightCol = 0
	}
	return append(buf,
		upRow*n+col,
		downRow*n+col,
		row*n+leftCol,
		row*n+rightCol,
	)
}

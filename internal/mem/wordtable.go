package mem

// WordTable is a table with one T per memory word, indexed by word (byte
// address >> 3). It is allocated a page at a time as words are touched, so
// its size follows the words in use rather than the highest address, and
// pages are kept for reuse once allocated.
type WordTable[T any] struct {
	pages [][]T
}

// pageWords is the number of words per WordTable page.
const pageWords = 512

// At returns the entry of word w (w >= 0), allocating its page on first
// use.
func (t *WordTable[T]) At(w int) *T {
	p := w / pageWords
	if p >= len(t.pages) {
		t.pages = append(t.pages, make([][]T, p+1-len(t.pages))...)
	}
	pg := t.pages[p]
	if pg == nil {
		pg = make([]T, pageWords)
		t.pages[p] = pg
	}
	return &pg[w%pageWords]
}

package radio

import (
	"reflect"
	"testing"
)

// pointerFree reports whether values of t hold no pointers, so storing or
// moving one never needs a GC write barrier.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// TestPointerFreeBuckets guards the per-candidate path of the spatial
// index and the per-copy path of Send: bucket and unindexed-list elements,
// the merged candidate scratch and the fan-out copies must hold no
// pointers, so inserting, merging and posting them move plain words.
func TestPointerFreeBuckets(t *testing.T) {
	idx := reflect.TypeFor[cellIndex]()
	cells, _ := idx.FieldByName("cells")
	unind, _ := idx.FieldByName("unind")
	scratch := reflect.TypeFor[collectScratch]()
	cand, _ := scratch.FieldByName("cand")
	cur, _ := scratch.FieldByName("cur")
	fan, _ := reflect.TypeFor[Shard]().FieldByName("fan")
	for name, typ := range map[string]reflect.Type{
		"cell bucket element": cells.Type.Elem().Elem(),
		"unindexed element":   unind.Type.Elem(),
		"collect scratch":     cand.Type.Elem(),
		"collect cursor":      cur.Type,
		"fan-out copy":        fan.Type.Elem(),
	} {
		if !pointerFree(typ) {
			t.Errorf("%s (%v) holds a pointer", name, typ)
		}
	}
}

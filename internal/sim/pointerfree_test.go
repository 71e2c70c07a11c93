package sim

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

// TestPointerFreeQueue guards the per-copy path of the scheduler: heap
// slots, fan-out copies and posted copies must hold no pointers, so the heap
// sifts and the fan-out sort move plain words. A field that brings a pointer
// back (an any, a func, a *event) fails here before it shows up as write
// barriers in a profile.
func TestPointerFreeQueue(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeFor[heapEntry](),
		reflect.TypeFor[eventHeap]().Elem(),
		reflect.TypeFor[fanCopy](),
		reflect.TypeFor[Copy](),
	} {
		if !pointerFree(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
	// The guard itself must see pointers where they are.
	for _, typ := range []reflect.Type{
		reflect.TypeFor[event](),
		reflect.TypeFor[Timer](),
		reflect.TypeFor[struct{ s string }](),
	} {
		if pointerFree(typ) {
			t.Errorf("pointerFree(%v) = true", typ)
		}
	}
}
